// The push-based online runtime: turns the batch DlacepPipeline into a
// streaming service.
//
//   source ──(producer thread)──▶ bounded ingest queue
//          ──(assembler)──▶ watermark-closed windows
//          ──(inline, or round-robin shards)──▶ per-window marks
//          ──(deterministic in-order merge)──▶ CEP extraction
//
// One producer thread pulls events from a StreamSource, assigns arrival
// ids at ingest (§4.4), and pushes into a bounded RingQueue — blocking
// (lossless backpressure) or dropping (counted) when full. The caller's
// thread runs the assembler: it pops events, closes assembler windows
// by watermark (a window closes exactly when its last event has
// arrived, reproducing InputAssembler::Windows / CountWindows window by
// window), takes the window's overload/probe decision, and dispatches
// it. No state carries from one window's marks to the next, so where a
// window is marked never changes what it marks:
//
//   * num_shards = 0: the assembler marks the window inline, with its
//     own nn::InferenceContext, and merges it before the next window
//     closes.
//   * num_shards = N: window `seq` goes to shard seq % N, a worker
//     thread pinned to a core with its own SPSC work/completion rings
//     and InferenceContext. The assembler merges strictly by dispatch
//     sequence; a shard's completion ring is FIFO, so the merge pops
//     exactly the owner shard's ring for the next sequence.
//
// Both paths mark through one routine (MarkWindows), and overload,
// health, probe, and checkpoint decisions all stay on the assembler,
// which is what keeps them independent of the shard count:
//
//   CORRECTNESS CONTRACT (tests/runtime_test.cc,
//   tests/sharded_runtime_test.cc): with a lossless producer and the
//   overload controller disabled or never triggered, the merged mark
//   sequence, deduplicated relayed-event count, and extracted MatchSet
//   are byte-identical to DlacepPipeline::Evaluate on the same stream,
//   at every num_shards and batch_size.
//
// An OverloadController watches ingest-queue depth and end-to-end
// window latency and degrades with hysteresis — raised filter
// threshold first, then the shedding fallback — recovering when
// pressure clears (see overload.h). The number of windows in flight is
// bounded, which couples filtration pressure back to the ingest queue:
// when marking can't keep up, the queue fills, and either the producer
// blocks (backpressure) or drops are counted — never an unbounded
// buffer.
//
// FAULT TOLERANCE (see health.h, checkpoint.h, fault_injection.h):
// a HealthGuard validates every merged window's marks (kInvalidMark
// sentinels, coverage, mark-latency deadline, anomaly streaks). A
// violation quarantines the window — its events relay unfiltered, so
// recall for that window is 1.0 — and forces the controller into the
// kDegraded level, where every window relays unfiltered until probed
// recovery (periodic shadow-marked windows must pass N consecutive
// health checks) re-enables the filter. Source reads are retried with
// exponential backoff on kUnavailable; a persistent failure aborts
// ingestion cleanly (suffix windows are not fabricated) instead of
// crashing, so a final checkpoint still captures a restorable state.
// The accounting contract grows one term:
//   relayed + filtered + dropped + quarantined == ingested.
//
// CEP extraction runs once at end-of-stream over the deduplicated
// relayed events (the engines are batch evaluators); per-window
// latencies therefore measure ingest → merged-marks, which is the
// filtration service time the overload controller manages.

#ifndef DLACEP_RUNTIME_ONLINE_H_
#define DLACEP_RUNTIME_ONLINE_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "dlacep/config.h"
#include "dlacep/drift.h"
#include "dlacep/extractor.h"
#include "dlacep/filter.h"
#include "dlacep/shedding_filter.h"
#include "nn/infer.h"
#include "runtime/checkpoint.h"
#include "runtime/health.h"
#include "runtime/overload.h"
#include "runtime/ring_queue.h"
#include "runtime/source.h"
#include "runtime/stats.h"

namespace dlacep {

/// Online drift monitoring knobs (flag-only: the runtime records drift
/// firings in RuntimeStats instead of triggering retraining — see
/// dlacep/drift.h for the retraining loop).
struct DriftConfig {
  bool enabled = false;
  /// Training-time marking rate the live rate is compared against.
  double reference_rate = 0.0;
  double tolerance = 0.1;
  size_t window_budget = 8;
};

struct OnlineConfig {
  size_t queue_capacity = 1024;

  /// false: the producer blocks while the queue is full (lossless
  /// backpressure). true: arrivals are dropped when full and counted in
  /// RuntimeStats (the emergency regime the paper's §6 discusses).
  bool drop_when_full = false;

  /// Sharded mode: windows dispatched but not yet merged before the
  /// assembler stops popping events. 0 = 2·num_shards + 2. Inline
  /// marking never has a window in flight.
  size_t max_windows_in_flight = 0;

  /// Assembler geometry, as in DlacepConfig (0 = paper defaults 2W/W).
  size_t mark_size = 0;
  size_t step_size = 0;

  /// Sharded mode: up to this many adjacent level-0/1 windows of a
  /// shard's work burst mark through one MarkBatchOnline call — a busy
  /// shard's backlog batches naturally, an idle shard marks solo with
  /// no added latency. Shed, degraded, and probe windows always mark
  /// solo. 1 = per-window marking (default). Inline marking handles one
  /// window at a time, so it never batches. Merge order is dispatch
  /// order, so results stay byte-identical at every batch_size.
  size_t batch_size = 1;

  /// 0 (default): the assembler marks each closed window inline and
  /// merges it before the next window's overload decision. N >= 1:
  /// window `seq` is marked by shard seq % N — one worker thread per
  /// shard, pinned (best-effort) to core k mod hardware concurrency,
  /// with its own work/completion rings and nn::InferenceContext.
  /// Pinning failures (no affinity API, cgroup cpuset) are recorded in
  /// ShardStats::pinned and otherwise ignored. Marks, matches, and
  /// accounting are byte-identical at every shard count.
  size_t num_shards = 0;

  /// Serve-layer hooks (src/serve). collect_relayed copies the
  /// deduplicated relayed events (merge order) and the sorted
  /// quarantined id set into OnlineResult so a caller can run its own
  /// extraction over them. skip_extraction skips the built-in
  /// single-pattern CEP pass entirely — the multi-query server
  /// evaluates shared sub-plans itself. Both default off: the runtime
  /// behaves exactly as before.
  bool collect_relayed = false;
  bool skip_extraction = false;

  /// Exact-CEP engine for the end-of-run extraction. kAdaptive lets a
  /// cost model over per-engine EngineStats pick the cheapest engine
  /// per pattern: the assembler feeds every closed window into a decayed
  /// per-type frequency estimator, the choice is re-evaluated every
  /// engine_options.adaptive_reselect_windows windows, and the decision
  /// trail lands in dlacep_engine_selected_total{engine,pattern} and
  /// RuntimeStats. Selection is a pure function of the event stream, so
  /// matches stay byte-identical to any static engine. Tree/lazy kinds
  /// abort construction (like the batch pipeline) when the pattern is
  /// outside their class; adaptive never does.
  EngineKind engine = EngineKind::kNfa;
  EngineOptions engine_options;

  OverloadConfig overload;
  DriftConfig drift;
  HealthConfig health;
  CheckpointConfig checkpoint;

  /// Test/fault-injection hook: called by the worker about to mark
  /// window `seq` (e.g. FaultInjector::OnWorkerWindow wedges one
  /// window). Must be thread-safe; empty = no-op.
  std::function<void(uint64_t)> worker_window_hook;
};

/// Outcome of one Run(): the extracted matches plus everything the
/// byte-equality tests compare against the batch path.
struct OnlineResult {
  MatchSet matches;
  /// Marked ids in deterministic merge order, duplicates from
  /// overlapping windows included — same layout as
  /// PipelineResult::marked_ids.
  std::vector<EventId> marked_ids;
  size_t marked_events = 0;  ///< deduplicated (== stats.events_relayed)
  /// OnlineConfig::collect_relayed: the deduplicated relayed events in
  /// deterministic merge order, and the sorted ids that reached the
  /// store through a quarantined window (recall-1.0 events a per-query
  /// extraction must always include). Empty unless requested.
  std::vector<Event> relayed_events;
  std::vector<EventId> quarantined_ids;
  RuntimeStats stats;

  double filtering_ratio() const {
    return stats.events_appended == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(stats.events_appended);
  }
};

class OnlineDlacep {
 public:
  /// `filter` is borrowed and must outlive the runtime; it may be a
  /// trained network, a shedding baseline, the oracle, or pass-through
  /// (anything the batch pipeline accepts). Count windows only, like
  /// DlacepPipeline.
  OnlineDlacep(const Pattern& pattern, const StreamFilter* filter,
               const OnlineConfig& config);

  /// Online-mode precondition surfaced as a Status (for user-input
  /// paths like the CLI): the streaming assembler requires a count
  /// window. The constructor CHECKs the same condition.
  static Status ValidateForOnline(const Pattern& pattern);

  /// Drains `source` to completion. May be called again with a new
  /// source; each call is an independent run with fresh stats. Aborts
  /// on restore/config errors — CLI paths use the Status overload.
  OnlineResult Run(StreamSource* source);

  /// Like Run(), but surfaces checkpoint-restore, configuration, and
  /// extraction errors (e.g. an engine_options partial-match budget
  /// blown: kBudgetExceeded) as a Status instead of aborting. Returns
  /// only after the producer and every shard thread have joined.
  Status Run(StreamSource* source, OnlineResult* result);

  const OnlineConfig& config() const { return config_; }

 private:
  /// A closed window with the assembler's decisions taken: the
  /// overload level it runs under and whether it is a recovery probe.
  struct WindowTask {
    size_t seq = 0;            ///< dispatch sequence (the merge order)
    size_t begin = 0;
    int level = 0;
    bool probe = false;        ///< shadow-marked recovery probe
    double close_seconds = 0;  ///< run-clock time the watermark closed it
    std::shared_ptr<EventStream> events;
  };
  /// A marked window, ready to merge.
  struct DoneWindow {
    size_t seq = 0;
    size_t begin = 0;
    std::vector<int> marks;
    int level = 0;
    double close_seconds = 0;
    std::shared_ptr<EventStream> events;
    bool probe = false;
    bool timed_out = false;    ///< stand-in after a deadline abandon
    std::vector<int> shadow_marks;  ///< probe output (inspected only)
  };
  struct RunState;

  void CloseWindow(RunState* state, size_t begin, size_t end);
  /// The one mark routine, shared by inline dispatch and ShardLoop:
  /// marks `tasks` in order and appends one DoneWindow per task to
  /// `out`. Degraded windows relay everything (a probe additionally
  /// shadow-marks with the primary filter), shed windows use the
  /// shedding fallback, and runs of adjacent level-0/1 windows mark
  /// through one MarkBatchOnline call of up to batch_size windows.
  /// `shard` (null inline) receives the per-call accounting.
  void MarkWindows(std::span<WindowTask> tasks, InferenceContext* ctx,
                   std::vector<DoneWindow>* out, ShardStats* shard,
                   size_t shard_index) const;
  void MergeOne(RunState* state, DoneWindow window);
  /// Sharded mode: merges every completed window that is next in
  /// dispatch order, blocking until `target_in_flight` or fewer remain
  /// pending. With a mark deadline configured, an overdue window is
  /// abandoned: its quarantined stand-in merges in its place, so a
  /// wedged shard can never stall the merge line. No-op inline.
  void DrainMerges(RunState* state, size_t target_in_flight);
  /// Shard worker body: burst-pops window tasks from the shard's work
  /// ring, marks them with MarkWindows, and burst-pushes completions.
  void ShardLoop(RunState* state, size_t shard_index);
  /// Quiesces in-flight windows and atomically persists a checkpoint.
  void WriteCheckpointNow(RunState* state);
  /// Seeds a fresh RunState from the checkpoint in config_.checkpoint.
  Status RestoreFrom(RunState* state, StreamSource* source);

  Pattern pattern_;
  OnlineConfig config_;
  const StreamFilter* filter_;  ///< not owned
  size_t mark_size_;
  size_t step_size_;
  size_t num_shards_;
  size_t max_in_flight_;
  /// One scratch arena per shard (slot 0 is the inline path's), reused
  /// across windows and runs.
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
  /// Level-2 fallbacks, built once from the pattern/config.
  TypeSheddingFilter type_shed_;
  RandomSheddingFilter random_shed_;
  CepExtractor extractor_;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_ONLINE_H_
