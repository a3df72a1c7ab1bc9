// Fault-injection harness tests: the runtime's robustness contract
// under every injected fault class —
//
//   * the serve loop never crashes: Run() completes with a clean Status
//     or a counted abort, never an uncontrolled exit;
//   * accounting always holds:
//       relayed + filtered + dropped + quarantined == ingested;
//   * degraded/quarantined windows relay unfiltered (recall 1.0);
//   * a killed-and-restored run is byte-identical to an uninterrupted
//     one (marks and matches);
//   * corrupt model files and checkpoints are rejected at load (CRC),
//     and a failed load leaves in-memory parameters untouched.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "nn/infer.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "runtime/checkpoint.h"
#include "runtime/fault_injection.h"
#include "runtime/health.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(CheckpointPath(dir).c_str());
  return dir;
}

void ExpectAccounted(const RuntimeStats& stats) {
  EXPECT_TRUE(stats.Accounted())
      << "relayed " << stats.events_relayed << " + filtered "
      << stats.events_filtered << " + dropped " << stats.events_dropped_queue
      << " + quarantined " << stats.events_quarantined << " != ingested "
      << stats.events_ingested;
}

// ---------------------------------------------------------------------
// --inject spec parsing.

TEST(FaultSpec, EmptySpecDisablesEverything) {
  auto plan = ParseFaultSpec("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().any());
}

TEST(FaultSpec, ParsesEveryTokenWithArguments) {
  auto plan = ParseFaultSpec(
      "nan_burst:2:5,model_corrupt,corrupt_source:0.25,wedge:3:0.75,"
      "source_fail:100:4");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().nan_burst);
  EXPECT_EQ(plan.value().nan_begin_pass, 2u);
  EXPECT_EQ(plan.value().nan_pass_count, 5u);
  EXPECT_TRUE(plan.value().model_corrupt);
  EXPECT_DOUBLE_EQ(plan.value().corrupt_probability, 0.25);
  EXPECT_TRUE(plan.value().wedge);
  EXPECT_EQ(plan.value().wedge_window, 3u);
  EXPECT_DOUBLE_EQ(plan.value().wedge_seconds, 0.75);
  EXPECT_TRUE(plan.value().source_fail);
  EXPECT_EQ(plan.value().fail_at, 100u);
  EXPECT_EQ(plan.value().fail_count, 4u);
}

TEST(FaultSpec, DefaultsApplyWhenArgumentsOmitted) {
  auto plan = ParseFaultSpec("nan_burst,wedge,source_fail,corrupt_source");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().nan_begin_pass, 4u);
  EXPECT_EQ(plan.value().nan_pass_count, 4u);
  EXPECT_EQ(plan.value().wedge_window, 8u);
  EXPECT_EQ(plan.value().fail_at, 256u);
  EXPECT_EQ(plan.value().fail_count, 3u);
  EXPECT_DOUBLE_EQ(plan.value().corrupt_probability, 0.05);
}

TEST(FaultSpec, RejectsUnknownAndMalformedTokens) {
  EXPECT_FALSE(ParseFaultSpec("nonsense").ok());
  EXPECT_FALSE(ParseFaultSpec("nan_burst:abc").ok());
  EXPECT_FALSE(ParseFaultSpec("corrupt_source:1.5").ok());
  EXPECT_FALSE(ParseFaultSpec("wedge:2:-1").ok());
  EXPECT_FALSE(ParseFaultSpec("pathological_query:4:1").ok());
}

TEST(FaultSpec, ParsesServeLayerTokens) {
  auto plan = ParseFaultSpec("pathological_query:9:32,churn_storm:128");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().any());
  EXPECT_TRUE(plan.value().pathological_query);
  EXPECT_EQ(plan.value().pathological_at, 9u);
  EXPECT_EQ(plan.value().pathological_window, 32u);
  EXPECT_TRUE(plan.value().churn_storm);
  EXPECT_EQ(plan.value().churn_cycles, 128u);

  auto defaults = ParseFaultSpec("pathological_query,churn_storm");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().pathological_at, 6u);
  EXPECT_EQ(defaults.value().pathological_window, 40u);
  EXPECT_EQ(defaults.value().churn_cycles, 64u);
}

TEST(FaultSpec, PathologicalHookFiresOnceAtTriggerWindow) {
  auto plan = ParseFaultSpec("pathological_query:6");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(plan.value());
  int fired = 0;
  injector.SetPathologicalHook([&fired] { ++fired; });
  injector.OnWorkerWindow(5);
  EXPECT_EQ(fired, 0);
  // `>=` trigger: an out-of-order shard can mark a later window first.
  injector.OnWorkerWindow(7);
  EXPECT_EQ(fired, 1);
  injector.OnWorkerWindow(6);
  injector.OnWorkerWindow(8);
  EXPECT_EQ(fired, 1) << "the hook must fire exactly once";
}

// ---------------------------------------------------------------------
// HealthGuard state machine.

TEST(HealthGuard, FlagsSentinelAndCoverageAndRange) {
  HealthGuard guard(HealthConfig{});
  EXPECT_EQ(guard.Inspect({1, 0, 1}, 3, 0.0), HealthViolation::kNone);
  EXPECT_EQ(guard.Inspect({1, kInvalidMark, 1}, 3, 0.0),
            HealthViolation::kInvalidMarks);
  EXPECT_EQ(guard.Inspect({1, 0}, 3, 0.0), HealthViolation::kInvalidMarks);
  EXPECT_EQ(guard.Inspect({1, 7, 0}, 3, 0.0),
            HealthViolation::kInvalidMarks);
}

TEST(HealthGuard, DeadlineFiresOnlyWhenConfigured) {
  HealthConfig config;
  EXPECT_EQ(HealthGuard(config).Inspect({1}, 1, 100.0),
            HealthViolation::kNone);  // deadline off by default
  config.mark_deadline_seconds = 0.5;
  HealthGuard guard(config);
  EXPECT_EQ(guard.Inspect({1}, 1, 0.4), HealthViolation::kNone);
  EXPECT_EQ(guard.Inspect({1}, 1, 0.6), HealthViolation::kDeadline);
}

TEST(HealthGuard, AnomalyStreakNeedsConsecutiveUniformWindows) {
  HealthConfig config;
  config.anomaly_streak = 3;
  HealthGuard guard(config);
  EXPECT_EQ(guard.Inspect({1, 1}, 2, 0.0), HealthViolation::kNone);
  EXPECT_EQ(guard.Inspect({0, 0}, 2, 0.0), HealthViolation::kNone);
  EXPECT_EQ(guard.Inspect({1, 1}, 2, 0.0),
            HealthViolation::kAnomalyStreak);
  // The firing consumed the streak; a mixed window keeps it at zero.
  EXPECT_EQ(guard.Inspect({1, 0}, 2, 0.0), HealthViolation::kNone);
  EXPECT_EQ(guard.Inspect({1, 1}, 2, 0.0), HealthViolation::kNone);
}

TEST(HealthGuard, ProbeRecoveryNeedsConsecutivePasses) {
  HealthConfig config;
  config.probe_passes = 2;
  HealthGuard guard(config);
  bool recovered = true;
  EXPECT_TRUE(guard.ProbeHealthy({1, 0}, 2, 0.0, &recovered));
  EXPECT_FALSE(recovered);
  // A failed probe resets the run.
  EXPECT_FALSE(guard.ProbeHealthy({kInvalidMark, kInvalidMark}, 2, 0.0,
                                  &recovered));
  EXPECT_FALSE(recovered);
  EXPECT_TRUE(guard.ProbeHealthy({1, 0}, 2, 0.0, &recovered));
  EXPECT_FALSE(recovered);
  EXPECT_TRUE(guard.ProbeHealthy({0, 1}, 2, 0.0, &recovered));
  EXPECT_TRUE(recovered);
}

// ---------------------------------------------------------------------
// Online runtime under injected filter faults.

/// Emits the kInvalidMark sentinel for every window beginning before
/// `bad_before`, and relay-all afterwards — a filter that "recovers"
/// once the stream has moved past a bad region, letting probes succeed.
class FlakyFilter : public StreamFilter {
 public:
  explicit FlakyFilter(size_t bad_before) : bad_before_(bad_before) {}

  std::string name() const override { return "flaky"; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    return std::vector<int>(range.size(), 1);
  }

  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext*, double) const override {
    if (stream_begin < bad_before_) {
      return std::vector<int>(window.size(), kInvalidMark);
    }
    return std::vector<int>(window.size(), 1);
  }

 private:
  size_t bad_before_;
};

TEST(FaultInjection, InvalidMarksQuarantineDegradeAndRecover) {
  const EventStream stream = SmallStream(800, 21);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);

  // Reference: everything relayed (exact CEP result). Overload control
  // is disabled everywhere in this test — its pressure signals are
  // wall-clock dependent and would make the match comparison flaky.
  PassThroughFilter pass;
  OnlineConfig ref_config;
  ref_config.overload.enabled = false;
  OnlineDlacep reference(pattern, &pass, ref_config);
  ReplaySource ref_source(&stream);
  const OnlineResult exact = reference.Run(&ref_source);

  FlakyFilter flaky(/*bad_before=*/100);
  for (size_t shards : {0u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    OnlineConfig config;
    config.num_shards = shards;
    config.overload.enabled = false;
    config.health.probe_period = 2;
    config.health.probe_passes = 2;
    OnlineDlacep online(pattern, &flaky, config);
    ReplaySource source(&stream);
    const OnlineResult result = online.Run(&source);

    ExpectAccounted(result.stats);
    EXPECT_GT(result.stats.windows_quarantined, 0u);
    EXPECT_GT(result.stats.windows_degraded, 0u);
    EXPECT_GE(result.stats.health_degrades, 1u);
    EXPECT_GE(result.stats.health_recoveries, 1u);
    // The flaky filter relays everything when healthy and the runtime
    // relays everything while quarantined/degraded, so recall is 1.0:
    // the match set equals exact CEP's.
    EXPECT_EQ(result.matches.size(), exact.matches.size());
    EXPECT_EQ(result.matches.IntersectionSize(exact.matches),
              exact.matches.size());
  }
}

TEST(FaultInjection, WedgedWorkerIsAbandonedAtTheDeadline) {
  const EventStream stream = SmallStream(600, 33);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);

  FaultPlan plan;
  plan.wedge = true;
  plan.wedge_window = 2;
  plan.wedge_seconds = 0.3;
  FaultInjector injector(plan);

  // Abandoning a window at its deadline needs it marked off the
  // assembler thread: two shards, so window 2 wedges shard 0.
  PassThroughFilter pass;
  OnlineConfig config;
  config.num_shards = 2;
  config.overload.enabled = false;
  config.health.mark_deadline_seconds = 0.05;
  config.worker_window_hook = [&injector](uint64_t seq) {
    injector.OnWorkerWindow(seq);
  };
  OnlineDlacep online(pattern, &pass, config);
  ReplaySource source(&stream);
  const OnlineResult result = online.Run(&source);

  ExpectAccounted(result.stats);
  EXPECT_GE(result.stats.health_violations, 1u);
  EXPECT_GE(result.stats.windows_quarantined, 1u);
  EXPECT_GE(result.stats.health_degrades, 1u);
  // Pass-through relays everything, and so do quarantined/degraded
  // windows — the wedge costs latency, never matches.
  PassThroughFilter ref_pass;
  OnlineConfig ref_config;
  ref_config.overload.enabled = false;
  OnlineDlacep reference(pattern, &ref_pass, ref_config);
  ReplaySource ref_source(&stream);
  const OnlineResult exact = reference.Run(&ref_source);
  EXPECT_EQ(result.matches.size(), exact.matches.size());
}

// ---------------------------------------------------------------------
// Source faults: retry-with-backoff and permanent aborts.

TEST(FaultInjection, TransientSourceFailuresAreRetriedLosslessly) {
  const EventStream stream = SmallStream(400, 5);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);

  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 50;
  plan.fail_count = 2;
  FaultInjector injector(plan);
  auto source =
      injector.WrapSource(std::make_unique<ReplaySource>(&stream));

  PassThroughFilter pass;
  OnlineDlacep online(pattern, &pass, OnlineConfig{});
  OnlineResult result;
  ASSERT_TRUE(online.Run(source.get(), &result).ok());

  ExpectAccounted(result.stats);
  EXPECT_EQ(result.stats.events_ingested, stream.size());
  EXPECT_EQ(result.stats.source_read_errors, 2u);
  EXPECT_EQ(result.stats.source_retries, 2u);
  EXPECT_FALSE(result.stats.source_aborted);
}

TEST(FaultInjection, PermanentSourceFailureAbortsCleanly) {
  const EventStream stream = SmallStream(400, 5);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);

  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 120;
  plan.fail_count = 0;  // permanent
  FaultInjector injector(plan);
  auto source =
      injector.WrapSource(std::make_unique<ReplaySource>(&stream));

  PassThroughFilter pass;
  OnlineDlacep online(pattern, &pass, OnlineConfig{});
  OnlineResult result;
  ASSERT_TRUE(online.Run(source.get(), &result).ok());

  ExpectAccounted(result.stats);
  EXPECT_TRUE(result.stats.source_aborted);
  EXPECT_EQ(result.stats.events_ingested, 120u);
}

TEST(FaultInjection, CorruptSourceIsDeterministicPerSeed) {
  const EventStream stream = SmallStream(300, 9);
  FaultPlan plan;
  plan.corrupt_probability = 0.1;

  auto corrupt_ids = [&](const FaultPlan& p) {
    FaultInjector injector(p);
    auto source =
        injector.WrapSource(std::make_unique<ReplaySource>(&stream));
    std::vector<size_t> ids;
    Event event;
    size_t index = 0;
    while (source->Read(&event).ok()) {
      if (std::isnan(event.timestamp)) ids.push_back(index);
      ++index;
    }
    return ids;
  };

  const std::vector<size_t> a = corrupt_ids(plan);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, corrupt_ids(plan));  // same seed, same corruption
  FaultPlan other = plan;
  other.seed = 999;
  EXPECT_NE(a, corrupt_ids(other));
}

// ---------------------------------------------------------------------
// Checkpoint/restore.

CheckpointState SampleState() {
  CheckpointState s;
  s.mark_size = 16;
  s.step_size = 8;
  s.appended = 120;
  s.next_begin = 112;
  s.windows_dispatched = 14;
  s.last_end = 120;
  s.buffer_offset = 112;
  for (uint64_t i = 112; i < 120; ++i) {
    s.buffer.push_back(Event(i, 1, static_cast<double>(i), {0.5}));
  }
  s.marked_ids = {3, 5, 5, 9};
  s.marked_events.push_back(Event(3, 2, 3.0, {1.0}));
  s.seen = {3, 5};
  s.quarantined = {9};
  s.windows_closed = 14;
  s.health_violations = 1;
  s.controller_level = 3;
  s.probe_pass_run = 1;
  s.degraded_since_probe = 5;
  return s;
}

TEST(Checkpoint, RoundTripRestoresEveryField) {
  const std::string dir = FreshDir("ck_roundtrip");
  const CheckpointState saved = SampleState();
  ASSERT_TRUE(SaveCheckpoint(saved, dir).ok());
  auto loaded = LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().appended, saved.appended);
  EXPECT_EQ(loaded.value().next_begin, saved.next_begin);
  EXPECT_EQ(loaded.value().buffer.size(), saved.buffer.size());
  EXPECT_EQ(loaded.value().buffer[0].id, saved.buffer[0].id);
  EXPECT_EQ(loaded.value().marked_ids, saved.marked_ids);
  EXPECT_EQ(loaded.value().seen, saved.seen);
  EXPECT_EQ(loaded.value().quarantined, saved.quarantined);
  EXPECT_EQ(loaded.value().controller_level, saved.controller_level);
  EXPECT_EQ(loaded.value().probe_pass_run, saved.probe_pass_run);
  EXPECT_EQ(loaded.value().degraded_since_probe, saved.degraded_since_probe);
}

TEST(Checkpoint, BitFlipFailsTheChecksum) {
  const std::string dir = FreshDir("ck_bitflip");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), dir).ok());
  // Flip a payload bit (past the 8-byte magic+version header).
  ASSERT_TRUE(BitFlipFile(CheckpointPath(dir), 40, 3).ok());
  EXPECT_FALSE(LoadCheckpoint(dir).ok());
}

TEST(Checkpoint, TruncationIsRejected) {
  const std::string dir = FreshDir("ck_truncate");
  ASSERT_TRUE(SaveCheckpoint(SampleState(), dir).ok());
  ASSERT_TRUE(TruncateFile(CheckpointPath(dir), 25).ok());
  EXPECT_FALSE(LoadCheckpoint(dir).ok());
}

TEST(Checkpoint, KillAndRestoreIsByteIdenticalToUninterruptedRun) {
  const EventStream stream = SmallStream(900, 77);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);

  for (size_t shards : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = FreshDir("ck_restore_" + std::to_string(shards));

    // Run A: uninterrupted. The overload controller stays disabled: its
    // pressure signals are wall-clock dependent, and this test pins
    // exact byte equality across runs.
    PassThroughFilter pass_a;
    OnlineConfig config_a;
    config_a.num_shards = shards;
    config_a.overload.enabled = false;
    OnlineDlacep online_a(pattern, &pass_a, config_a);
    ReplaySource source_a(&stream);
    const OnlineResult a = online_a.Run(&source_a);

    // Run B: permanent source failure mid-stream ("kill"), with a final
    // checkpoint written at abort.
    FaultPlan plan;
    plan.source_fail = true;
    plan.fail_at = 500;
    plan.fail_count = 0;
    FaultInjector injector(plan);
    auto source_b =
        injector.WrapSource(std::make_unique<ReplaySource>(&stream));
    PassThroughFilter pass_b;
    OnlineConfig config_b = config_a;
    config_b.checkpoint.dir = dir;
    config_b.checkpoint.every_events = 128;
    OnlineDlacep online_b(pattern, &pass_b, config_b);
    OnlineResult b;
    ASSERT_TRUE(online_b.Run(source_b.get(), &b).ok());
    EXPECT_TRUE(b.stats.source_aborted);
    ExpectAccounted(b.stats);

    // Run C: restore from B's checkpoint over a fresh source.
    PassThroughFilter pass_c;
    OnlineConfig config_c = config_a;
    config_c.checkpoint.dir = dir;
    config_c.checkpoint.restore = true;
    OnlineDlacep online_c(pattern, &pass_c, config_c);
    ReplaySource source_c(&stream);
    OnlineResult c;
    ASSERT_TRUE(online_c.Run(&source_c, &c).ok());

    ExpectAccounted(c.stats);
    EXPECT_EQ(c.stats.events_ingested, stream.size());
    EXPECT_EQ(c.marked_ids, a.marked_ids);
    EXPECT_EQ(c.marked_events, a.marked_events);
    EXPECT_EQ(c.matches.size(), a.matches.size());
    EXPECT_EQ(c.matches.IntersectionSize(a.matches), a.matches.size());
  }
}

TEST(Checkpoint, RestoreRefusesDroppingIngestAndMissingFiles) {
  const EventStream stream = SmallStream(100, 3);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter pass;

  OnlineConfig config;
  config.checkpoint.dir = FreshDir("ck_missing");
  config.checkpoint.restore = true;
  OnlineDlacep missing(pattern, &pass, config);
  ReplaySource source(&stream);
  OnlineResult result;
  EXPECT_FALSE(missing.Run(&source, &result).ok());  // no checkpoint file

  config.drop_when_full = true;
  OnlineDlacep dropping(pattern, &pass, config);
  ReplaySource source2(&stream);
  EXPECT_FALSE(dropping.Run(&source2, &result).ok());  // lossy + restore
}

// ---------------------------------------------------------------------
// NaN injection into inference and model corruption.

DlacepConfig TinyNetworkConfig() {
  DlacepConfig config;
  config.network.hidden_dim = 4;
  config.network.num_layers = 1;
  config.train.max_epochs = 2;
  return config;
}

TEST(FaultInjection, NanHookPoisonsMarksThroughTheSentinel) {
  const EventStream stream = SmallStream(300, 13);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  BuiltDlacep built = BuildDlacep(pattern, stream,
                                  FilterKind::kEventNetwork,
                                  TinyNetworkConfig());
  const StreamFilter& filter = built.pipeline->filter();

  EventStream window(stream.schema_ptr());
  for (size_t i = 0; i < 16; ++i) window.AppendArrival(stream[i]);
  InferenceContext ctx;

  // Poison every pass: marks must be the whole-window sentinel.
  FaultPlan plan;
  plan.nan_burst = true;
  plan.nan_begin_pass = 0;
  plan.nan_pass_count = 1u << 20;
  {
    FaultInjector injector(plan);
    injector.InstallNanHook();
    const std::vector<int> marks = filter.MarkOnline(window, 0, &ctx, 0.0);
    ASSERT_EQ(marks.size(), window.size());
    for (int m : marks) EXPECT_EQ(m, kInvalidMark);
  }
  // Injector destroyed: the hook is uninstalled and marks are valid.
  const std::vector<int> marks = filter.MarkOnline(window, 0, &ctx, 0.0);
  for (int m : marks) EXPECT_NE(m, kInvalidMark);
}

TEST(FaultInjection, CorruptedParametersYieldTheSentinelNotGarbage) {
  const EventStream stream = SmallStream(300, 17);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  BuiltDlacep built = BuildDlacep(pattern, stream,
                                  FilterKind::kEventNetwork,
                                  TinyNetworkConfig());
  auto* trainable =
      dynamic_cast<TrainableFilter*>(&built.pipeline->filter());
  ASSERT_NE(trainable, nullptr);
  CorruptParams(trainable);

  EventStream window(stream.schema_ptr());
  for (size_t i = 0; i < 16; ++i) window.AppendArrival(stream[i]);
  InferenceContext ctx;
  const std::vector<int> marks =
      built.pipeline->filter().MarkOnline(window, 0, &ctx, 0.0);
  ASSERT_EQ(marks.size(), window.size());
  for (int m : marks) EXPECT_EQ(m, kInvalidMark);
}

// ---------------------------------------------------------------------
// Model file (DLNN v2) integrity.

TEST(ModelFile, BitFlipFailsTheChecksum) {
  Rng rng(71);
  Dense layer("d", 3, 2, &rng);
  const std::string path = ::testing::TempDir() + "/dlnn_bitflip.bin";
  ASSERT_TRUE(SaveParameters(layer.Params(), path).ok());
  ASSERT_TRUE(BitFlipFile(path, 20, 5).ok());
  EXPECT_FALSE(LoadParameters(layer.Params(), path).ok());
  std::remove(path.c_str());
}

TEST(ModelFile, TruncationIsRejected) {
  Rng rng(72);
  Dense layer("d", 3, 2, &rng);
  const std::string path = ::testing::TempDir() + "/dlnn_truncate.bin";
  ASSERT_TRUE(SaveParameters(layer.Params(), path).ok());
  ASSERT_TRUE(TruncateFile(path, 30).ok());
  EXPECT_FALSE(LoadParameters(layer.Params(), path).ok());
  std::remove(path.c_str());
}

TEST(ModelFile, FailedLoadLeavesParametersUntouched) {
  Rng rng(73);
  Dense layer("d", 4, 3, &rng);
  const std::string path = ::testing::TempDir() + "/dlnn_staged.bin";
  ASSERT_TRUE(SaveParameters(layer.Params(), path).ok());
  ASSERT_TRUE(BitFlipFile(path, 24, 1).ok());

  std::vector<Matrix> before;
  for (Parameter* p : layer.Params()) before.push_back(p->value);
  EXPECT_FALSE(LoadParameters(layer.Params(), path).ok());
  const std::vector<Parameter*> params = layer.Params();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->value.MaxAbsDiff(before[i]), 0.0)
        << params[i]->name;
  }
  std::remove(path.c_str());
}

TEST(ModelFile, NonFiniteWeightsAreRejectedAtLoad) {
  Rng rng(74);
  Dense layer("d", 2, 2, &rng);
  layer.Params()[0]->value(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  const std::string path = ::testing::TempDir() + "/dlnn_nan.bin";
  ASSERT_TRUE(SaveParameters(layer.Params(), path).ok());

  Dense fresh("d", 2, 2, &rng);
  EXPECT_FALSE(LoadParameters(fresh.Params(), path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dlacep
