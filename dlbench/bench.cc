// The DLACEP end-to-end benchmark: one workload per invocation, timed
// from outside the program.
//
//   dlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--trace_out <file>]
//   dlbench --list
//
// A run sets the workload up several times (stream generation,
// labelling, training, engine construction) and reports the median set-up
// time, computes the exact match set once with the NFA engine, then
// repeats the DLACEP run over the same test stream until --seconds have
// passed and reports medians. Every repetition is checked: the event
// accounting identity, precision 1.0 against the exact matches for
// NEG-free patterns, and identical matches across lossless
// repetitions. The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 it holds
// the end-to-end metrics, with --trace 1 the per-layer ones.
//
// Traced runs alternate untraced and traced repetitions (the
// difference is the tracing overhead), keep one span per filter call,
// replay CepExtractor::Extract over the marked ids, and probe the
// featurizer and the network separately over the same windows.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis.h"
#include "cep/engine.h"
#include "dlacep/assembler.h"
#include "dlacep/event_filter.h"
#include "dlacep/extractor.h"
#include "dlacep/featurizer.h"
#include "dlacep/labeler.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/pipeline.h"
#include "nn/infer.h"
#include "pattern/parser.h"
#include "recorder.h"
#include "runtime/online.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/stocksim.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"

#ifndef DLBENCH_BUILD_TYPE
#define DLBENCH_BUILD_TYPE "unknown"
#endif

namespace dlbench {
namespace {

using dlacep::EngineKind;
using dlacep::EventStream;
using dlacep::MatchSet;
using dlacep::OnlineConfig;
using dlacep::Pattern;

constexpr int kSetupRepetitions = 3;
/// Percentile reported as the window-latency tail.
constexpr double kTailPercentile = 99.0;

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->list || !args->workload.empty();
}

// ------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Every metric name the benchmark can print, with its unit. tests/
/// compares this catalogue against BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"events_per_s", "ev/s"},
      {"result_tail_s", "s"},
      {"recall", "fraction"},
      {"clean_window_fraction", "fraction"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"dlacep.mark_busy_s", "s"},
      {"dlacep.mark_us_per_window", "us"},
      {"dlacep.windows_per_call", "count"},
      {"dlacep.relay_fraction", "fraction"},
      {"dlacep.featurize_us_per_window", "us"},
      {"nn.forward_us_per_window", "us"},
      {"cep.extract_s", "s"},
      {"cep.partial_matches", "count"},
      {"cep.transitions", "count"},
      {"cep.match_yield", "fraction"},
      {"cep.exact_s", "s"},
      {"cep.exact_partial_matches", "count"},
      {"cep.gain_vs_exact", "x"},
      {"runtime.self_s", "s"},
      {"runtime.queue_high_water", "count"},
      {"runtime.windows_closed", "count"},
      {"runtime.shard_skew", "x"},
      {"runtime.window_latency_p50_ms", "ms"},
      {"runtime.window_latency_p99_ms", "ms"},
      {"stream.read_s", "s"},
      {"serve.extract_s", "s"},
      {"serve.engines_run", "count"},
      {"serve.engines_shared", "count"},
      {"serve.pruned", "count"},
      {"serve.chunks_run", "count"},
      {"dlacep.label_s", "s"},
      {"nn.train_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.accounting_error_pct", "%"},
  };
  return kNames;
}

/// Non-finite values (a median over no repetitions) print as 0; the
/// run reports correct = false whenever that can happen.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ----------------------------------------------------------- workloads

enum class Kind { kSingle, kServe };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kSingle;
  size_t train_events = 0;
  size_t test_events = 0;
  size_t hidden = 12;
  size_t epochs = 30;
  std::function<OnlineConfig(size_t window)> online;
};

OnlineConfig PooledLossless(size_t /*window*/) {
  OnlineConfig config;  // num_threads = 1, batch_size = 1: CLI defaults
  config.overload.enabled = false;
  return config;
}

OnlineConfig ShardedLossless(size_t /*window*/) {
  OnlineConfig config;
  config.num_shards = 2;
  config.batch_size = 8;
  config.queue_capacity = 4096;
  config.overload.enabled = false;
  return config;
}

OnlineConfig ServeShards(size_t window) {
  OnlineConfig config = ShardedLossless(window);
  config.mark_size = 2 * window;
  config.step_size = window;
  return config;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"cep_heavy", Kind::kSingle, 4000, 24000, 12, 30, PooledLossless},
      {"filter_heavy", Kind::kSingle, 4000, 100000, 32, 20, ShardedLossless},
      {"serve_mix8", Kind::kServe, 2000, 12000, 96, 8, ServeShards},
  };
  return kSpecs;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stocksim draws every symbol's base volume from the seed, and the
/// band predicates' selectivity hangs on how close the top symbols'
/// bases land, so a single stocksim run is as often as not an outlier
/// of partial-match density. A stream is therefore stitched from
/// episodes of kEpisodeEvents events, each a stocksim run with its own
/// derived seed (ids renumbered, timestamps kept increasing), which
/// averages that density over many draws. Train and test episodes use
/// disjoint seeds.
constexpr size_t kEpisodeEvents = 250;

EventStream MakeStream(std::shared_ptr<const dlacep::Schema> schema,
                       size_t events, uint64_t seed, uint64_t salt) {
  EventStream stream(schema);
  const uint64_t base = SplitMix(SplitMix(seed) ^ salt);
  double offset = 0.0;
  for (size_t done = 0, episode = 0; done < events; ++episode) {
    const size_t n = std::min(kEpisodeEvents, events - done);
    const EventStream part = dlacep::GenerateStockStream(
        dlacep::workloads::StockConfig(n, SplitMix(base + episode)), schema);
    for (const dlacep::Event& e : part) {
      stream.Append(e.type, e.timestamp + offset, e.attrs);
    }
    offset = stream[stream.size() - 1].timestamp + 1.0;
    done += n;
  }
  return stream;
}

std::vector<Pattern> SinglePattern(const std::string& workload,
                                   std::shared_ptr<const dlacep::Schema> s) {
  std::vector<Pattern> patterns;
  if (workload == "cep_heavy") {
    patterns.push_back(dlacep::workloads::QA1(s, 4, 4, 0.9, 1.1, 3, 20));
  } else {
    auto parsed = dlacep::ParsePattern(
        "SEQ(ANY(S0,S1,S2) a, ANY(S0,S1,S2) b) "
        "WHERE 0.9*a.vol < b.vol < 1.1*a.vol WITHIN 20",
        s);
    if (!parsed.ok()) {
      std::fprintf(stderr, "pattern: %s\n",
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    patterns.push_back(std::move(parsed).value());
  }
  return patterns;
}

/// The 8-query serving mix of bench_multi_query: two structural-twin
/// pairs and four distinct shapes.
std::vector<Pattern> ServingMix(std::shared_ptr<const dlacep::Schema> s,
                                size_t w) {
  using namespace dlacep::workloads;
  std::vector<Pattern> patterns;
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA4(s, 4, 6, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w));
  patterns.push_back(QA10(s, 3, 8, 0.85, 1.2, w));
  patterns.push_back(QA11(s, false, 8, 0.8, 1.25, w));
  return patterns;
}

// --------------------------------------------------------------- setup

/// Everything a workload needs before its first Read().
struct System {
  EventStream train;
  EventStream test;
  std::vector<Pattern> patterns;
  dlacep::DlacepConfig dlacep_config;
  OnlineConfig online_config;
  size_t mark_size = 0;
  size_t step_size = 0;
  // Single-query workloads.
  dlacep::BuiltDlacep built;
  std::unique_ptr<MeteredFilter> metered;
  std::unique_ptr<dlacep::OnlineDlacep> online;
  // serve_mix8.
  std::unique_ptr<dlacep::MultiPatternDlacep> multi;
  std::unique_ptr<dlacep::serve::QueryRegistry> registry;
  std::unique_ptr<dlacep::serve::MultiQueryServer> server;
  double label_seconds = 0.0;
  double train_seconds = 0.0;
  size_t epochs_run = 0;
  double test_f1 = 0.0;

  System(EventStream train_in, EventStream test_in)
      : train(std::move(train_in)), test(std::move(test_in)) {}
};

std::unique_ptr<System> BuildSystem(const WorkloadSpec& spec, uint64_t seed,
                                    Recorder* recorder) {
  const std::shared_ptr<const dlacep::Schema> stock_schema =
      dlacep::MakeStockSchema(dlacep::workloads::kNumSymbols);
  auto system = std::make_unique<System>(
      MakeStream(stock_schema, spec.train_events, seed, 1),
      MakeStream(stock_schema, spec.test_events, seed, 2));
  auto schema = system->train.schema_ptr();
  dlacep::DlacepConfig config = spec.kind == Kind::kServe
                                    ? dlacep::workloads::FastBenchConfig()
                                    : dlacep::workloads::BenchConfig();
  config.network.hidden_dim = spec.hidden;
  // A fixed epoch count: early stopping would make training effort, and
  // with it the filter's relay rate, depend on the seed.
  config.train.max_epochs = spec.epochs;
  config.train.convergence_epochs = spec.epochs + 1;
  system->dlacep_config = config;

  if (spec.kind == Kind::kSingle) {
    system->patterns = SinglePattern(spec.name, schema);
    const Pattern& pattern = system->patterns.front();
    system->built = dlacep::BuildDlacep(pattern, system->train,
                                        dlacep::FilterKind::kEventNetwork,
                                        config);
    system->label_seconds = system->built.label_seconds;
    system->train_seconds = system->built.train_seconds;
    system->epochs_run = system->built.train_result.epochs_run;
    system->test_f1 = system->built.test_metrics.f1();
    const size_t w = pattern.window().count_size();
    system->online_config = spec.online(w);
    system->mark_size = 2 * w;
    system->step_size = w;
    system->metered = std::make_unique<MeteredFilter>(
        &system->built.pipeline->filter(), recorder);
    system->online = std::make_unique<dlacep::OnlineDlacep>(
        pattern, system->metered.get(), system->online_config);
    return system;
  }

  const size_t w = 12;
  system->patterns = ServingMix(schema, w);
  const double train_start = Now();
  system->multi = std::make_unique<dlacep::MultiPatternDlacep>(
      ServingMix(schema, w), system->train, config);
  system->train_seconds = Now() - train_start;
  system->epochs_run = spec.epochs;
  system->test_f1 = system->multi->test_metrics().f1();
  const size_t window = system->multi->max_window();
  system->online_config = spec.online(window);
  system->mark_size = system->online_config.mark_size;
  system->step_size = system->online_config.step_size;
  system->online_config.worker_window_hook = [recorder](uint64_t seq) {
    recorder->Local().windows_started.emplace_back(seq, Now());
  };
  system->registry = std::make_unique<dlacep::serve::QueryRegistry>();
  for (size_t q = 0; q < system->patterns.size(); ++q) {
    dlacep::serve::QueryOptions options;
    options.name = "q" + std::to_string(q);
    auto id = system->registry->Register(system->patterns[q], options);
    if (!id.ok()) {
      std::fprintf(stderr, "register q%zu: %s\n", q,
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  dlacep::serve::ServeConfig serve_config;
  serve_config.online = system->online_config;
  system->server = std::make_unique<dlacep::serve::MultiQueryServer>(
      system->registry.get(), system->multi->filter(),
      system->multi->filter(), serve_config);
  return system;
}

// ------------------------------------------------------------ the runs

/// Returns freed heap to the kernel, then resets the kernel's peak-RSS
/// mark so VmHWM covers what follows from a repeatable baseline.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Exact {
  std::vector<MatchSet> matches;  ///< one per pattern
  double seconds = 0.0;
  uint64_t partial_matches = 0;
};

Exact ComputeExact(const System& system) {
  Exact exact;
  for (const Pattern& pattern : system.patterns) {
    auto engine = dlacep::CreateEngine(EngineKind::kNfa, pattern);
    if (!engine.ok()) {
      std::fprintf(stderr, "exact engine: %s\n",
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    MatchSet matches;
    const double start = Now();
    const dlacep::Status status = engine.value()->Evaluate(
        std::span<const dlacep::Event>(system.test.events()), &matches);
    exact.seconds += Now() - start;
    if (!status.ok()) {
      std::fprintf(stderr, "exact run: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    exact.partial_matches += engine.value()->stats().partial_matches;
    exact.matches.push_back(std::move(matches));
  }
  return exact;
}

/// One repetition of the DLACEP run, as seen from outside.
struct Rep {
  bool traced = false;
  bool ok = true;
  std::vector<std::string> failures;
  double wall = 0.0;  ///< first Read() to the complete result
  double tail = 0.0;  ///< end of stream reported to the complete result
  double events = 0.0;
  std::vector<double> window_latency_ms;
  double recall = 0.0;
  uint64_t windows_closed = 0;
  uint64_t windows_unclean = 0;
  uint64_t events_dropped = 0;
  double rss_mb = 0.0;
  double read_busy = 0.0;
  double mark_busy = 0.0;
  uint64_t mark_calls = 0;
  uint64_t mark_windows = 0;
  double relay_fraction = 0.0;
  double runtime_extract = 0.0;
  uint64_t queue_high_water = 0;
  double shard_skew = 1.0;
  dlacep::serve::SharingStats sharing;
  // Traced repetitions only.
  double runtime_self = 0.0;
  double accounting_error_pct = 0.0;
  std::vector<Span> spans;
  // Results, kept for the determinism check and the replays.
  std::vector<MatchSet> matches;
  std::vector<dlacep::EventId> marked_ids;
};

void Fail(Rep* rep, std::string why) {
  rep->ok = false;
  rep->failures.push_back(std::move(why));
}

bool Subset(const MatchSet& part, const MatchSet& whole) {
  return part.IntersectionSize(whole) == part.size();
}

double Recall(const MatchSet& found, const MatchSet& exact) {
  return exact.empty() ? 1.0
                       : static_cast<double>(found.IntersectionSize(exact)) /
                             static_cast<double>(exact.size());
}

void CheckAndScoreStats(const dlacep::RuntimeStats& stats, Rep* rep) {
  if (!stats.Accounted()) Fail(rep, "RuntimeStats::Accounted() is false");
  rep->windows_closed = stats.windows_closed;
  rep->windows_unclean = stats.windows_boosted + stats.windows_shed +
                         stats.windows_quarantined + stats.windows_degraded;
  rep->events_dropped = stats.events_dropped_queue;
  rep->relay_fraction =
      stats.events_appended == 0
          ? 0.0
          : static_cast<double>(stats.events_relayed) /
                static_cast<double>(stats.events_appended);
  rep->runtime_extract = stats.extract_seconds;
  rep->queue_high_water = stats.queue_high_water;
  if (!stats.shards.empty()) {
    uint64_t lo = stats.shards.front().windows_routed;
    uint64_t hi = lo;
    for (const dlacep::ShardStats& shard : stats.shards) {
      lo = std::min(lo, shard.windows_routed);
      hi = std::max(hi, shard.windows_routed);
    }
    rep->shard_skew = lo == 0 ? static_cast<double>(hi)
                              : static_cast<double>(hi) /
                                    static_cast<double>(lo);
  }
}

/// Builds the span tree of a traced repetition: the Run call, one span
/// per filter call below it, and the end-of-stream extraction Run
/// reports (placed at the end of the call). Then checks the
/// time-accounting identity: runtime self time plus the layers' shares
/// of the critical path must equal the wall time the program's own
/// stopwatch reports for the call (`program_seconds`) within 5%.
void AccountTime(const std::vector<const ThreadLog*>& logs, double run_start,
                 double run_end, double extract_seconds,
                 double program_seconds, uint32_t run, Rep* rep) {
  std::vector<Span> spans;
  Span root;
  root.layer = "runtime";
  root.name = "Run";
  root.start = run_start;
  root.end = run_end;
  root.run = run;
  spans.push_back(root);
  for (const ThreadLog* log : logs) {
    for (Span span : log->spans) {
      span.parent = 0;
      spans.push_back(std::move(span));
    }
  }
  Span extract;
  extract.layer = "cep";
  extract.name = "Extract(end of stream)";
  extract.start = std::max(run_start, run_end - extract_seconds);
  extract.end = run_end;
  extract.parent = 0;
  extract.run = run;
  spans.push_back(extract);

  const auto children = ChildrenOf(spans);
  rep->runtime_self = SelfSeconds(spans, 0, children);
  const auto split =
      CriticalPathSplit(spans, 0, children, {"cep", "dlacep", "runtime"});
  double parts = 0.0;
  for (const auto& [layer, seconds] : split) parts += seconds;
  const double wall = run_end - run_start;
  rep->accounting_error_pct =
      program_seconds > 0.0
          ? 100.0 * std::abs(parts - program_seconds) / program_seconds
          : 100.0;
  if (std::abs(split.at("runtime") - rep->runtime_self) > 1e-9 * (1 + wall)) {
    Fail(rep, "runtime self time disagrees with the critical-path split");
  }
  if (rep->accounting_error_pct > 5.0) {
    Fail(rep, "layer times do not sum to Run wall time within 5%");
  }
  rep->spans = std::move(spans);
}

void CollectSourceSamples(const BenchSource& source, Rep* rep) {
  rep->read_busy = source.read_busy();
  rep->events = static_cast<double>(source.events_read());
}

Rep RunSingle(System* system, const Exact& exact, Recorder* recorder,
              bool traced, uint32_t run) {
  Rep rep;
  rep.traced = traced;
  recorder->Reset(traced, run);
  BenchSource source(&system->test);
  dlacep::OnlineResult result;
  ResetPeakRss();
  const double start = Now();
  const dlacep::Status status = system->online->Run(&source, &result);
  const double end = Now();
  rep.rss_mb = PeakRssMb();
  if (!status.ok()) {
    Fail(&rep, "Run: " + status.ToString());
    return rep;
  }
  if (source.end_of_stream() < 0.0) Fail(&rep, "source never drained");
  rep.wall = end - source.first_read();
  rep.tail = end - source.end_of_stream();
  CollectSourceSamples(source, &rep);

  const auto logs = recorder->Logs();
  for (const ThreadLog* log : logs) {
    rep.mark_busy += log->filter_busy;
    rep.mark_calls += log->filter_calls;
    rep.mark_windows += log->filter_windows;
    for (const auto& [last, done] : log->windows_marked) {
      if (last < source.events_read()) {
        rep.window_latency_ms.push_back((done - source.returned()[last]) * 1e3);
      }
    }
  }
  CheckAndScoreStats(result.stats, &rep);
  if (rep.mark_windows == 0) Fail(&rep, "no window reached the filter");
  const MatchSet& truth = exact.matches.front();
  if (!system->patterns.front().HasNegation() &&
      !Subset(result.matches, truth)) {
    Fail(&rep, "precision below 1.0 against the exact NFA");
  }
  rep.recall = Recall(result.matches, truth);
  if (traced) {
    AccountTime(logs, start, end, result.stats.extract_seconds,
                result.stats.elapsed_seconds, run, &rep);
  }
  rep.marked_ids = std::move(result.marked_ids);
  rep.matches.push_back(std::move(result.matches));
  return rep;
}

Rep RunServe(System* system, const Exact& exact, Recorder* recorder,
             bool traced, uint32_t run) {
  Rep rep;
  rep.traced = traced;
  recorder->Reset(traced, run);
  BenchSource source(&system->test);
  dlacep::serve::MultiQueryResult result;
  ResetPeakRss();
  const double start = Now();
  const dlacep::Status status = system->server->Run(&source, &result);
  const double end = Now();
  rep.rss_mb = PeakRssMb();
  if (!status.ok()) {
    Fail(&rep, "MultiQueryServer::Run: " + status.ToString());
    return rep;
  }
  if (source.end_of_stream() < 0.0) Fail(&rep, "source never drained");
  rep.wall = end - source.first_read();
  rep.tail = end - source.end_of_stream();
  CollectSourceSamples(source, &rep);

  // The shared filter lives inside the server, so a serve window's
  // latency ends when a shard worker picks it up for marking.
  const size_t n = system->test.size();
  const auto logs = recorder->Logs();
  for (const ThreadLog* log : logs) {
    for (const auto& [seq, picked] : log->windows_started) {
      const size_t last =
          std::min<size_t>(seq * system->step_size + system->mark_size, n) - 1;
      rep.window_latency_ms.push_back((picked - source.returned()[last]) * 1e3);
    }
  }
  CheckAndScoreStats(result.stats, &rep);
  if (rep.window_latency_ms.empty()) Fail(&rep, "no window reached a shard");
  for (const dlacep::ShardStats& shard : result.stats.shards) {
    rep.mark_busy += shard.mark_seconds;
    rep.mark_calls += shard.filter_calls;
    rep.mark_windows += shard.windows_marked;
  }
  rep.sharing = result.sharing;
  if (result.queries.size() != exact.matches.size()) {
    Fail(&rep, "serve returned a different number of queries");
    return rep;
  }
  // Recall pooled over the queries: a query whose exact set holds a
  // handful of matches would otherwise decide the whole figure (the
  // per-query values are in the info line).
  size_t found = 0;
  size_t expected = 0;
  for (size_t q = 0; q < result.queries.size(); ++q) {
    const MatchSet& truth = exact.matches[q];
    if (!Subset(result.queries[q].matches, truth)) {
      Fail(&rep, "query q" + std::to_string(q) +
                     " returned matches outside its exact set");
    }
    // A degraded query may have lost matches: a failed operation.
    if (result.queries[q].degraded) ++rep.windows_unclean;
    found += result.queries[q].matches.IntersectionSize(truth);
    expected += truth.size();
    rep.matches.push_back(std::move(result.queries[q].matches));
  }
  rep.recall = expected == 0 ? 1.0
                             : static_cast<double>(found) /
                                   static_cast<double>(expected);
  if (traced) {
    // The server's stats time the streaming run and the shared
    // extraction separately.
    AccountTime(logs, start, end, result.stats.extract_seconds,
                result.stats.elapsed_seconds + result.stats.extract_seconds,
                run, &rep);
  }
  return rep;
}

// -------------------------------------------------------------- probes

struct CepReplay {
  double seconds = 0.0;
  uint64_t partial_matches = 0;
  uint64_t transitions = 0;
  uint64_t matches = 0;
};

/// Replays CepExtractor::Extract over a run's marked ids; the match set
/// must equal what the runtime returned.
CepReplay ReplayExtract(const Pattern& pattern, const EventStream& test,
                        const std::vector<dlacep::EventId>& marked_ids,
                        const MatchSet& expected, std::string* failure) {
  CepReplay replay;
  std::vector<const dlacep::Event*> marked;
  marked.reserve(marked_ids.size());
  for (const dlacep::EventId id : marked_ids) {
    if (id >= test.size() || test[id].id != id) {
      *failure = "marked id outside the test stream";
      return replay;
    }
    marked.push_back(&test[id]);
  }
  dlacep::CepExtractor extractor(pattern);
  MatchSet matches;
  const double start = Now();
  const dlacep::Status status = extractor.Extract(std::move(marked), &matches);
  replay.seconds = Now() - start;
  if (!status.ok()) {
    *failure = "replayed Extract: " + status.ToString();
    return replay;
  }
  replay.partial_matches = extractor.stats().partial_matches;
  replay.transitions = extractor.stats().transitions;
  replay.matches = matches.size();
  if (matches.size() != expected.size() || !Subset(matches, expected)) {
    *failure = "replayed Extract differs from OnlineResult::matches";
  }
  return replay;
}

struct MarkProbe {
  double featurize_us = 0.0;
  double forward_us = 0.0;
};

/// Marks the test stream's assembler windows three ways — MarkOnline,
/// and Encode followed by MarkFeaturesWith — timing the two halves of
/// the second path separately. Marks must agree window by window.
MarkProbe ProbeMarking(const dlacep::Featurizer& featurizer,
                       const dlacep::EventNetworkFilter& filter,
                       const EventStream& test, size_t mark, size_t step,
                       std::string* failure) {
  MarkProbe probe;
  dlacep::InferenceContext ctx;
  double featurize = 0.0;
  double forward = 0.0;
  size_t windows = 0;
  for (size_t begin = 0; begin < test.size(); begin += step) {
    const size_t size = std::min(mark, test.size() - begin);
    EventStream window = test.Slice(begin, size);
    const std::vector<int> online = filter.MarkOnline(window, begin, &ctx, 0);
    const double t0 = Now();
    const dlacep::Matrix features =
        featurizer.Encode(test.View(begin, size));
    const double t1 = Now();
    const std::vector<int> marks = filter.MarkFeaturesWith(features, &ctx);
    const double t2 = Now();
    featurize += t1 - t0;
    forward += t2 - t1;
    ++windows;
    if (marks != online) {
      *failure = "Encode+MarkFeaturesWith differs from MarkOnline at window " +
                 std::to_string(windows - 1);
      return probe;
    }
    if (begin + size >= test.size()) break;
  }
  probe.featurize_us = windows == 0 ? 0.0 : featurize / windows * 1e6;
  probe.forward_us = windows == 0 ? 0.0 : forward / windows * 1e6;
  return probe;
}

// -------------------------------------------------------------- output

void WriteSpans(const std::string& path,
                const std::vector<const Rep*>& reps) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const Rep* rep : reps) {
    for (size_t i = 0; i < rep->spans.size(); ++i) {
      const Span& s = rep->spans[i];
      out << "{\"run\":" << s.run << ",\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
          << ",\"layer\":" << JsonString(s.layer)
          << ",\"name\":" << JsonString(s.name)
          << ",\"start\":" << JsonNumber(s.start)
          << ",\"end\":" << JsonNumber(s.end) << "}\n";
    }
  }
}

double MedianOf(const std::vector<const Rep*>& reps,
                const std::function<double(const Rep&)>& get) {
  std::vector<double> values;
  for (const Rep* rep : reps) values.push_back(get(*rep));
  return Median(std::move(values));
}

int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  Recorder recorder;

  // Set-up, several times; keep the last system.
  std::vector<double> setup_seconds;
  std::vector<double> label_seconds;
  std::vector<double> train_seconds;
  std::unique_ptr<System> system;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    system.reset();
    const double start = Now();
    system = BuildSystem(spec, args.seed, &recorder);
    setup_seconds.push_back(Now() - start);
    label_seconds.push_back(system->label_seconds);
    train_seconds.push_back(system->train_seconds);
  }
  const Exact exact = ComputeExact(*system);
  size_t exact_total = 0;
  for (const MatchSet& m : exact.matches) exact_total += m.size();
  std::printf("workload=%s seed=%llu setup_s=[%.3f %.3f %.3f] "
              "exact_matches=%zu exact_s=%.3f\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              setup_seconds[0], setup_seconds[1], setup_seconds[2],
              exact_total, exact.seconds);
  std::fflush(stdout);

  // Repetitions until the measuring time is spent. Lossless runs must
  // repeat exactly; each repetition's matches are compared with the
  // first one's and then dropped, so retained results do not inflate
  // the next repetition's peak RSS. The last traced repetition keeps
  // its output for the replays below.
  const bool lossless = !system->online_config.drop_when_full &&
                        !system->online_config.overload.enabled;
  std::vector<Rep> reps;
  std::vector<MatchSet> reference;
  size_t last_traced = 0;  // index + 1; 0 = none yet
  const double measure_start = Now();
  uint32_t run = 0;
  while (reps.empty() || Now() - measure_start < args.seconds ||
         (args.trace && reps.size() < 2)) {
    const bool traced = args.trace && run % 2 == 1;
    Rep rep = spec.kind == Kind::kServe
                  ? RunServe(system.get(), exact, &recorder, traced, run)
                  : RunSingle(system.get(), exact, &recorder, traced, run);
    if (rep.ok && reference.empty()) {
      reference = rep.matches;
    } else if (rep.ok && lossless) {
      bool same = rep.matches.size() == reference.size();
      for (size_t q = 0; same && q < reference.size(); ++q) {
        same = rep.matches[q].size() == reference[q].size() &&
               Subset(rep.matches[q], reference[q]);
      }
      if (!same) Fail(&rep, "lossless repetitions returned different matches");
    }
    if (traced && last_traced != 0) {
      reps[last_traced - 1].matches.clear();
      reps[last_traced - 1].marked_ids.clear();
    }
    if (!traced) {
      rep.matches.clear();
      rep.marked_ids.clear();
    }
    reps.push_back(std::move(rep));
    if (traced) last_traced = reps.size();
    ++run;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& rep : reps) {
    attempted += std::max<uint64_t>(rep.windows_closed, 1);
    failed += rep.ok ? rep.windows_unclean + rep.events_dropped
                     : std::max<uint64_t>(rep.windows_closed, 1);
    for (const std::string& why : rep.failures) {
      std::printf("CHECK FAILED (run %zu): %s\n",
                  static_cast<size_t>(&rep - reps.data()), why.c_str());
    }
    correct = correct && rep.ok;
  }

  std::map<std::string, Metric> metrics;
  auto put = [&](const std::string& name, double value) {
    for (const auto& catalogue : {EndToEndCatalogue(), PerLayerCatalogue()}) {
      for (const auto& [n, unit] : catalogue) {
        if (n == name) metrics[name] = Metric{value, unit};
      }
    }
  };

  // Figures come from the repetitions that ran to completion (a failed
  // check leaves the timings valid; a failed Run leaves none). With
  // none left the run still reports, as zeros with correct = false.
  std::vector<const Rep*> untraced;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) {
    if (rep.wall > 0.0) (rep.traced ? traced : untraced).push_back(&rep);
  }

  // Window latency percentiles are taken per repetition (nearest rank
  // over that repetition's raw samples) and their median reported, so
  // one stalled repetition cannot move the figure. The info line says
  // how many samples back them.
  size_t latency_samples = 0;
  size_t min_rep_samples = 0;
  for (const Rep* rep : untraced) {
    const size_t n = rep->window_latency_ms.size();
    latency_samples += n;
    min_rep_samples =
        rep == untraced.front() ? n : std::min(min_rep_samples, n);
  }
  const double events_per_s =
      MedianOf(untraced, [](const Rep& r) { return r.events / r.wall; });

  if (!args.trace) {
    put("events_per_s", events_per_s);
    put("result_tail_s", MedianOf(untraced, [](const Rep& r) {
          return r.tail;
        }));
    put("recall", MedianOf(untraced, [](const Rep& r) { return r.recall; }));
    double windows = 0.0;
    double unclean = 0.0;
    for (const Rep* rep : untraced) {
      windows += static_cast<double>(rep->windows_closed);
      unclean +=
          static_cast<double>(rep->windows_unclean + rep->events_dropped);
    }
    put("clean_window_fraction",
        windows > 0.0 ? std::max(0.0, 1.0 - unclean / windows) : 0.0);
    put("setup_s", Median(setup_seconds));
    put("peak_rss_mb",
        MedianOf(untraced, [](const Rep& r) { return r.rss_mb; }));
  } else {
    // Replays and probes over the last traced repetition's output.
    const Rep* last = traced.empty() ? nullptr : traced.back();
    std::string failure;
    CepReplay replay;
    MarkProbe probe;
    if (last == nullptr || !last->ok || last->matches.empty()) {
      failure = "the last traced repetition left no output to replay";
    } else if (spec.kind == Kind::kSingle) {
      replay = ReplayExtract(system->patterns.front(), system->test,
                             last->marked_ids, last->matches.front(),
                             &failure);
      if (failure.empty()) {
        probe = ProbeMarking(
            *system->built.featurizer,
            static_cast<const dlacep::EventNetworkFilter&>(
                system->built.pipeline->filter()),
            system->test, system->mark_size, system->step_size, &failure);
      }
    } else {
      // Each query alone through the same filter and geometry must
      // relay the events serve attributed to it, so replaying Extract
      // over an isolated run's marks reproduces serve's matches.
      OnlineConfig alone = system->online_config;
      alone.worker_window_hook = nullptr;
      for (size_t q = 0; q < system->patterns.size() && failure.empty();
           ++q) {
        dlacep::OnlineDlacep isolated(system->patterns[q],
                                      system->multi->filter(), alone);
        dlacep::ReplaySource source(&system->test);
        const dlacep::OnlineResult result = isolated.Run(&source);
        const CepReplay one =
            ReplayExtract(system->patterns[q], system->test,
                          result.marked_ids, last->matches[q], &failure);
        if (!failure.empty()) failure += " (query q" + std::to_string(q) + ")";
        replay.seconds += one.seconds;
        replay.partial_matches += one.partial_matches;
        replay.transitions += one.transitions;
        replay.matches += one.matches;
      }
      if (failure.empty()) {
        std::vector<std::vector<dlacep::TypeId>> type_sets;
        for (const Pattern& p : system->patterns) {
          for (auto& set : p.PrimitiveTypeSets()) {
            type_sets.push_back(std::move(set));
          }
        }
        const dlacep::Featurizer featurizer(type_sets, system->train);
        probe = ProbeMarking(featurizer, *system->multi->filter(),
                             system->test, system->mark_size,
                             system->step_size, &failure);
        const dlacep::InputAssembler assembler(system->mark_size,
                                               system->step_size);
        const double start = Now();
        for (const Pattern& p : system->patterns) {
          dlacep::BuildFilterDataset(p, system->train, assembler, featurizer,
                                     system->dlacep_config.train_fraction,
                                     system->dlacep_config.split_seed);
        }
        label_seconds.assign(1, Now() - start);
      }
    }
    if (!failure.empty()) {
      std::printf("CHECK FAILED (replay): %s\n", failure.c_str());
      correct = false;
      failed +=
          last == nullptr ? 1 : std::max<uint64_t>(last->windows_closed, 1);
    }

    const double traced_eps =
        MedianOf(traced, [](const Rep& r) { return r.events / r.wall; });
    const double dlacep_wall =
        MedianOf(untraced, [](const Rep& r) { return r.wall; });
    put("dlacep.mark_busy_s",
        MedianOf(traced, [](const Rep& r) { return r.mark_busy; }));
    put("dlacep.mark_us_per_window", MedianOf(traced, [](const Rep& r) {
          return r.mark_windows == 0 ? 0.0 : r.mark_busy / r.mark_windows * 1e6;
        }));
    put("dlacep.windows_per_call", MedianOf(traced, [](const Rep& r) {
          return r.mark_calls == 0
                     ? 0.0
                     : static_cast<double>(r.mark_windows) / r.mark_calls;
        }));
    put("dlacep.relay_fraction",
        MedianOf(traced, [](const Rep& r) { return r.relay_fraction; }));
    put("dlacep.featurize_us_per_window", probe.featurize_us);
    put("nn.forward_us_per_window", probe.forward_us);
    put("cep.extract_s", replay.seconds);
    put("cep.partial_matches", static_cast<double>(replay.partial_matches));
    put("cep.transitions", static_cast<double>(replay.transitions));
    put("cep.match_yield",
        replay.partial_matches == 0
            ? 0.0
            : static_cast<double>(replay.matches) / replay.partial_matches);
    put("cep.exact_s", exact.seconds);
    put("cep.exact_partial_matches",
        static_cast<double>(exact.partial_matches));
    put("cep.gain_vs_exact", exact.seconds / dlacep_wall);
    put("runtime.self_s",
        MedianOf(traced, [](const Rep& r) { return r.runtime_self; }));
    put("runtime.queue_high_water", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.queue_high_water);
        }));
    put("runtime.windows_closed", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.windows_closed);
        }));
    put("runtime.shard_skew",
        MedianOf(traced, [](const Rep& r) { return r.shard_skew; }));
    // Closed loop: a window's latency is mostly the time its last event
    // queued behind a full ingest queue, so it follows throughput; taken
    // from the untraced repetitions.
    put("runtime.window_latency_p50_ms", MedianOf(untraced, [](const Rep& r) {
          return NearestRank(r.window_latency_ms, 50.0);
        }));
    put("runtime.window_latency_p99_ms", MedianOf(untraced, [](const Rep& r) {
          return NearestRank(r.window_latency_ms, kTailPercentile);
        }));
    put("stream.read_s",
        MedianOf(traced, [](const Rep& r) { return r.read_busy; }));
    put("serve.extract_s",
        MedianOf(traced, [](const Rep& r) { return r.runtime_extract; }));
    put("serve.engines_run", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.sharing.engines_run);
        }));
    put("serve.engines_shared", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.sharing.engines_shared);
        }));
    put("serve.pruned", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.sharing.guard_pruned +
                                     r.sharing.type_pruned);
        }));
    put("serve.chunks_run", MedianOf(traced, [](const Rep& r) {
          return static_cast<double>(r.sharing.chunks_run);
        }));
    put("dlacep.label_s", Median(label_seconds));
    put("nn.train_s", Median(train_seconds));
    put("trace.overhead_pct", 100.0 * (events_per_s - traced_eps) /
                                  events_per_s);
    put("trace.accounting_error_pct", MedianOf(traced, [](const Rep& r) {
          return r.accounting_error_pct;
        }));
    if (!args.trace_out.empty()) WriteSpans(args.trace_out, traced);
  }

  std::string query_recall;
  for (size_t q = 0; q < reference.size(); ++q) {
    query_recall += (q ? "," : "") +
                    JsonNumber(Recall(reference[q],
                                      exact.matches[q]));
  }

  std::string rep_eps;
  std::string rep_tail;
  for (const Rep* rep : untraced) {
    const char* sep = rep_eps.empty() ? "" : ",";
    rep_eps += sep + JsonNumber(rep->events / rep->wall);
    rep_tail += sep + JsonNumber(rep->tail);
  }

  // Context for the reader; the result object is the last line.
  std::printf("{\"info\":{\"workload\":%s,\"seed\":%llu,\"nproc\":%ld,"
              "\"build_type\":%s,\"repetitions\":%zu,\"traced\":%zu,"
              "\"window_latency_samples\":%zu,"
              "\"highest_percentile_10_beyond_per_rep\":%s,"
              "\"test_events\":%zu,\"exact_matches\":%zu,"
              "\"epochs_run\":%zu,\"test_f1\":%s,\"relay_fraction\":%s,"
              "\"query_recall\":[%s],\"rep_events_per_s\":[%s],"
              "\"rep_tail_s\":[%s]}}\n",
              JsonString(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              sysconf(_SC_NPROCESSORS_ONLN),
              JsonString(DLBENCH_BUILD_TYPE).c_str(), reps.size(),
              traced.size(), latency_samples,
              JsonNumber(HighestSupportedPercentile(min_rep_samples)).c_str(),
              system->test.size(), exact_total, system->epochs_run,
              JsonNumber(system->test_f1).c_str(),
              JsonNumber(MedianOf(untraced, [](const Rep& r) {
                           return r.relay_fraction;
                         })).c_str(),
              query_recall.c_str(), rep_eps.c_str(), rep_tail.c_str());

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    line << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
         << JsonNumber(metric.value) << ", \"unit\": "
         << JsonString(metric.unit) << "}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

void PrintCatalogue() {
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < Workloads().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", JsonString(Workloads()[i].name).c_str());
  }
  std::printf("], \"end_to_end\": {");
  for (size_t i = 0; i < EndToEndCatalogue().size(); ++i) {
    const auto& [name, unit] = EndToEndCatalogue()[i];
    std::printf("%s%s: %s", i ? ", " : "", JsonString(name).c_str(),
                JsonString(unit).c_str());
  }
  std::printf("}, \"per_layer\": {");
  for (size_t i = 0; i < PerLayerCatalogue().size(); ++i) {
    const auto& [name, unit] = PerLayerCatalogue()[i];
    std::printf("%s%s: %s", i ? ", " : "", JsonString(name).c_str(),
                JsonString(unit).c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace dlbench

int main(int argc, char** argv) {
  dlbench::Args args;
  if (!dlbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dlbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace_out <file>] | --list\n");
    return 2;
  }
  if (args.list) {
    dlbench::PrintCatalogue();
    return 0;
  }
  for (const dlbench::WorkloadSpec& spec : dlbench::Workloads()) {
    if (spec.name == args.workload) return dlbench::RunWorkload(spec, args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
