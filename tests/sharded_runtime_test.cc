// Sharded runtime tests: the thread-per-core sharded OnlineDlacep
// (OnlineConfig::num_shards >= 1) must be byte-identical — marks,
// matches, accounting, overload/health trajectories — to inline marking
// (num_shards = 0) and to the batch pipeline at EVERY shard count.
// Routing is an implementation detail; only throughput may change.
//
// Also covers round-robin balance, per-shard stats aggregation, and
// checkpoint kill-and-restore across shard counts. The whole file must
// pass under TSan (see the CI sanitizer job).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "pattern/builder.h"
#include "runtime/checkpoint.h"
#include "runtime/fault_injection.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "stream/stocksim.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

void ExpectSameMatches(const MatchSet& a, const MatchSet& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.IntersectionSize(b), a.size());
}

// ---------------------------------------------------------------------
// Byte-equality across shard counts (the tentpole contract).

/// SEQ(S0 a, S1 b) with an ascending-volume condition — a two-symbol
/// pattern over the stock schema, so type-shedding has irrelevant
/// traffic to drop.
Pattern StockSeqPattern(std::shared_ptr<const Schema> schema,
                        size_t window) {
  PatternBuilder builder(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  children.push_back(builder.Prim("S0", "a"));
  children.push_back(builder.Prim("S1", "b"));
  auto root = builder.SeqOf(std::move(children));
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.2, "b");
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

/// Content-based filter: relay events whose volume clears a gate. Pure
/// function of the event payload, so any routing must reproduce it.
class VolGateFilter : public StreamFilter {
 public:
  explicit VolGateFilter(double gate) : gate_(gate) {}

  std::string name() const override { return "vol-gate"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    std::vector<int> marks(range.size(), 0);
    for (size_t t = 0; t < range.size(); ++t) {
      const Event& e = stream[range.begin + t];
      if (!e.is_blank() && !e.attrs.empty() && e.attrs[0] > gate_) {
        marks[t] = 1;
      }
    }
    return marks;
  }

 private:
  double gate_;
};

/// A Zipf-skewed stock stream: hot symbols dominate most windows, a
/// content skew that routing must neither follow nor let perturb the
/// output.
EventStream ZipfStream() {
  StockSimConfig config;
  config.num_events = 4000;
  config.num_symbols = 12;
  config.zipf_exponent = 1.4;
  config.seed = 21;
  return GenerateStockStream(config);
}

struct EqualityCase {
  const EventStream* stream;
  const Pattern* pattern;
  const StreamFilter* filter;
  size_t mark_size = 0;
  size_t step_size = 0;
  size_t batch_size = 1;
};

PipelineResult BatchReference(const EqualityCase& c,
                              std::unique_ptr<StreamFilter> filter) {
  DlacepConfig config;
  config.num_threads = 1;
  config.mark_size = c.mark_size;
  config.step_size = c.step_size;
  DlacepPipeline pipeline(*c.pattern, std::move(filter), config);
  return pipeline.Evaluate(*c.stream);
}

// Runs the sharded runtime at several shard counts and checks marks,
// relayed-event counts, matches, accounting, and per-shard stats
// aggregation against the batch pipeline result (which inline marking
// is already pinned to by tests/runtime_test.cc).
void CheckShardedMatchesBatch(const EqualityCase& c,
                              const PipelineResult& batch) {
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    OnlineConfig config;
    config.num_shards = shards;
    config.queue_capacity = 64;
    config.mark_size = c.mark_size;
    config.step_size = c.step_size;
    config.batch_size = c.batch_size;
    config.overload.enabled = false;  // lossless backpressure only
    OnlineDlacep online(*c.pattern, c.filter, config);
    ReplaySource source(c.stream);
    const OnlineResult result = online.Run(&source);

    EXPECT_EQ(result.marked_ids, batch.marked_ids) << "shards=" << shards;
    EXPECT_EQ(result.marked_events, batch.marked_events)
        << "shards=" << shards;
    ExpectSameMatches(result.matches, batch.matches);

    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
    EXPECT_EQ(result.stats.events_ingested, c.stream->size());
    EXPECT_EQ(result.stats.events_dropped_queue, 0u);

    // Per-shard accounting must aggregate to the global counters: every
    // closed window routed to exactly one shard and marked exactly once.
    // Round-robin routing keeps the shards within one window of each
    // other, whatever the stream's symbol skew.
    ASSERT_EQ(result.stats.shards.size(), shards);
    uint64_t routed = 0;
    uint64_t marked = 0;
    uint64_t least = result.stats.shards.front().windows_routed;
    uint64_t most = least;
    for (const ShardStats& s : result.stats.shards) {
      routed += s.windows_routed;
      marked += s.windows_marked;
      least = std::min(least, s.windows_routed);
      most = std::max(most, s.windows_routed);
      EXPECT_LE(s.windows_marked, s.windows_routed);
    }
    EXPECT_LE(most - least, 1u) << "shards=" << shards;
    EXPECT_EQ(routed, result.stats.windows_closed) << "shards=" << shards;
    EXPECT_EQ(marked, result.stats.windows_closed) << "shards=" << shards;
  }
}

TEST(ShardedEquality, PassThroughOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(ShardedEquality, TypeSheddingOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  TypeSheddingFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<TypeSheddingFilter>(pattern)));
}

TEST(ShardedEquality, RandomSheddingOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  RandomSheddingFilter filter(0.5, 0x5eed);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c,
      BatchReference(c, std::make_unique<RandomSheddingFilter>(0.5, 0x5eed)));
}

TEST(ShardedEquality, ContentFilterOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<VolGateFilter>(20.0)));
}

TEST(ShardedEquality, ShardLocalMicroBatchingPreservesOutput) {
  // batch_size > 1 moves the micro-batch grouping into the shard
  // workers (adjacent batchable tasks in a burst) — output must not
  // notice.
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  c.batch_size = 4;
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<VolGateFilter>(20.0)));
}

TEST(ShardedEquality, NonDefaultGeometryAndSmallStream) {
  const EventStream stream = SmallStream(900, 19);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/30,
                 /*step_size=*/10};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

// ---------------------------------------------------------------------
// Overload determinism across shard counts.

OnlineResult RunOnline(const EventStream& stream, const Pattern& pattern,
                       const StreamFilter* filter,
                       const OnlineConfig& config) {
  OnlineDlacep online(pattern, filter, config);
  ReplaySource source(&stream);
  return online.Run(&source);
}

TEST(ShardedOverload, EscalationLadderIsShardCountInvariant) {
  // Watermarks rigged so the pressure signal is a constant: high = 0
  // makes every queue fraction pressure, low < 0 makes relief
  // impossible. The controller's level is then a pure function of the
  // window index (escalate every dwell_windows), so boosted/shed window
  // sets — and with the head-arrival-id shedding salt, the shed marks
  // themselves — must be byte-identical at every shard count.
  const EventStream stream = SmallStream(1500, 33);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.overload.enabled = true;
  base.overload.high_watermark = 0.0;
  base.overload.low_watermark = -1.0;
  base.overload.latency_high_seconds = 0.0;
  base.overload.dwell_windows = 2;
  base.overload.shedding = SheddingPolicy::kRandom;

  // Reference: inline marking (num_shards = 0).
  const OnlineResult reference = RunOnline(stream, pattern, &filter, base);

  // Windows 0..1 run at level 0, 1..2 boosted, everything after shed.
  EXPECT_EQ(reference.stats.overload_escalations, 2u);
  EXPECT_EQ(reference.stats.overload_level_at_exit, 2);
  EXPECT_EQ(reference.stats.windows_boosted, 2u);
  EXPECT_EQ(reference.stats.windows_shed,
            reference.stats.windows_closed - 3);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {1u, 2u, 4u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.windows_boosted, reference.stats.windows_boosted);
    EXPECT_EQ(result.stats.windows_shed, reference.stats.windows_shed);
    EXPECT_EQ(result.stats.overload_escalations,
              reference.stats.overload_escalations);
    EXPECT_EQ(result.stats.overload_level_at_exit,
              reference.stats.overload_level_at_exit);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Degrade-to-exact determinism across shard counts.

/// Pass-through that reports invalid (untrustworthy) marks for a fixed
/// set of window begins — a deterministic health violation. Overrides
/// BOTH entry points: the batch path keys on range.begin, the online
/// path on the stream_begin the runtime dispatched (identical values,
/// since window geometry is global in every mode).
class PoisonWindowFilter : public StreamFilter {
 public:
  std::string name() const override { return "poison-window"; }

  static bool Poisoned(size_t begin) { return begin == 48 || begin == 640; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    return MarkAt(range.begin, range.size());
  }

  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext*, double) const override {
    return MarkAt(stream_begin, window.size());
  }

 private:
  static std::vector<int> MarkAt(size_t begin, size_t count) {
    return std::vector<int>(count, Poisoned(begin) ? kInvalidMark : 1);
  }
};

TEST(ShardedDegrade, DegradeToExactIsShardCountInvariant) {
  // max_windows_in_flight = 1 serializes close → mark → merge, as
  // inline marking always does, so the degraded/probe trajectory (which
  // depends on merge-vs-close order) is a pure function of the window
  // index at every shard count. The poisoned
  // begins (windows 3 and 40 of the 16-step geometry) each force one
  // quarantine + degrade; probes recover well before the next poison.
  const EventStream stream = SmallStream(2000, 55);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PoisonWindowFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.mark_size = 32;
  base.step_size = 16;
  base.max_windows_in_flight = 1;
  base.overload.enabled = false;
  base.health.enabled = true;
  base.health.probe_period = 4;
  base.health.probe_passes = 2;

  // Reference: inline marking (num_shards = 0).
  const OnlineResult reference = RunOnline(stream, pattern, &filter, base);

  EXPECT_EQ(reference.stats.windows_quarantined, 2u);
  EXPECT_EQ(reference.stats.health_degrades, 2u);
  EXPECT_EQ(reference.stats.health_recoveries, 2u);
  EXPECT_GT(reference.stats.windows_degraded, 0u);
  EXPECT_GT(reference.stats.probes_run, 0u);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {1u, 2u, 4u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.events_quarantined,
              reference.stats.events_quarantined);
    EXPECT_EQ(result.stats.windows_quarantined,
              reference.stats.windows_quarantined);
    EXPECT_EQ(result.stats.windows_degraded,
              reference.stats.windows_degraded);
    EXPECT_EQ(result.stats.health_violations,
              reference.stats.health_violations);
    EXPECT_EQ(result.stats.health_degrades, reference.stats.health_degrades);
    EXPECT_EQ(result.stats.health_recoveries,
              reference.stats.health_recoveries);
    EXPECT_EQ(result.stats.probes_run, reference.stats.probes_run);
    EXPECT_EQ(result.stats.probes_passed, reference.stats.probes_passed);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Checkpoint/restore in sharded mode.

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(CheckpointPath(dir).c_str());
  return dir;
}

TEST(ShardedCheckpoint, KillAndRestoreMatchesLegacyUninterruptedRun) {
  // Checkpoints are written quiescently (all shards drained), so the
  // snapshot carries no shard-count state: a sharded run killed
  // mid-stream restores into another sharded run and finishes
  // byte-identical to an inline run that was never interrupted.
  const EventStream stream = SmallStream(900, 77);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  const std::string dir = FreshDir("ck_sharded_restore");

  PassThroughFilter pass_a;
  OnlineConfig config_a;  // inline marking
  config_a.overload.enabled = false;
  OnlineDlacep online_a(pattern, &pass_a, config_a);
  ReplaySource source_a(&stream);
  const OnlineResult a = online_a.Run(&source_a);

  // Run B: sharded, permanent source failure mid-stream ("kill"), with
  // a final checkpoint written at abort.
  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 500;
  plan.fail_count = 0;
  FaultInjector injector(plan);
  auto source_b = injector.WrapSource(std::make_unique<ReplaySource>(&stream));
  PassThroughFilter pass_b;
  OnlineConfig config_b;
  config_b.num_shards = 2;
  config_b.overload.enabled = false;
  config_b.checkpoint.dir = dir;
  config_b.checkpoint.every_events = 128;
  OnlineDlacep online_b(pattern, &pass_b, config_b);
  OnlineResult b;
  ASSERT_TRUE(online_b.Run(source_b.get(), &b).ok());
  EXPECT_TRUE(b.stats.source_aborted);
  EXPECT_TRUE(b.stats.Accounted());

  // Run C: sharded (different shard count), restored from B's
  // checkpoint over a fresh source.
  PassThroughFilter pass_c;
  OnlineConfig config_c;
  config_c.num_shards = 4;
  config_c.overload.enabled = false;
  config_c.checkpoint.dir = dir;
  config_c.checkpoint.restore = true;
  OnlineDlacep online_c(pattern, &pass_c, config_c);
  ReplaySource source_c(&stream);
  OnlineResult c;
  ASSERT_TRUE(online_c.Run(&source_c, &c).ok());

  EXPECT_TRUE(c.stats.Accounted());
  EXPECT_EQ(c.stats.events_ingested, stream.size());
  EXPECT_EQ(c.marked_ids, a.marked_ids);
  EXPECT_EQ(c.marked_events, a.marked_events);
  ExpectSameMatches(c.matches, a.matches);
}

}  // namespace
}  // namespace dlacep
