#include "runtime/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/string_util.h"

namespace dlacep {

double LatencyHistogram::BucketBound(size_t i) {
  return 1e-6 * static_cast<double>(uint64_t{1} << i);
}

size_t LatencyHistogram::BucketFor(double seconds) {
  if (seconds <= BucketBound(0)) return 0;
  // Past every finite bound (also shields the integer cast below from
  // overflow on absurd inputs): overflow bucket.
  if (seconds > BucketBound(kBuckets - 2)) return kBuckets - 1;
  // The bit width of the truncated microsecond value lands within one
  // bucket of the answer; 1e-6 is not exactly representable, so the
  // bound checks below — the same expressions the historical linear
  // scan evaluated — settle ties. Each loop runs at most once.
  const auto micros = static_cast<uint64_t>(seconds * 1e6);
  size_t bucket = micros == 0
                      ? 0
                      : static_cast<size_t>(std::bit_width(micros)) - 1;
  if (bucket > kBuckets - 1) bucket = kBuckets - 1;
  while (bucket > 0 && seconds <= BucketBound(bucket - 1)) --bucket;
  while (bucket < kBuckets - 1 && seconds > BucketBound(bucket)) ++bucket;
  return bucket;
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  ++buckets_[BucketFor(seconds)];
  ++count_;
  if (seconds > max_seconds_) max_seconds_ = seconds;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // 1-based nearest-rank: the ceiling keeps rank >= 1 for every p, so
  // small p can no longer round down to rank 0 and report bucket 0's
  // bound when bucket 0 is empty.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  // A bucket's upper bound can exceed every sample in it; the observed
  // max is the tighter bound for the top bucket, so no percentile ever
  // reports above max_seconds().
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (seen >= rank) return std::min(BucketBound(i), max_seconds_);
  }
  return max_seconds_;
}

std::string RuntimeStats::ToString() const {
  std::string out;
  out += StrFormat("events ingested : %llu\n",
                   static_cast<unsigned long long>(events_ingested));
  out += StrFormat("  appended      : %llu\n",
                   static_cast<unsigned long long>(events_appended));
  out += StrFormat("  relayed       : %llu\n",
                   static_cast<unsigned long long>(events_relayed));
  out += StrFormat("  filtered      : %llu\n",
                   static_cast<unsigned long long>(events_filtered));
  out += StrFormat("  dropped(queue): %llu\n",
                   static_cast<unsigned long long>(events_dropped_queue));
  out += StrFormat("  quarantined   : %llu\n",
                   static_cast<unsigned long long>(events_quarantined));
  out += StrFormat("accounted       : %s\n", Accounted() ? "yes" : "NO");
  out += StrFormat("queue high-water: %zu / %zu\n", queue_high_water,
                   queue_capacity);
  out += StrFormat(
      "windows closed  : %llu (boosted %llu, shed %llu)\n",
      static_cast<unsigned long long>(windows_closed),
      static_cast<unsigned long long>(windows_boosted),
      static_cast<unsigned long long>(windows_shed));
  out += StrFormat("window latency  : p50 %.3fms  p99 %.3fms  max %.3fms\n",
                   window_latency.Percentile(50.0) * 1e3,
                   window_latency.Percentile(99.0) * 1e3,
                   window_latency.max_seconds() * 1e3);
  out += StrFormat(
      "overload        : level %d at exit, %llu escalations, "
      "%llu recoveries\n",
      overload_level_at_exit,
      static_cast<unsigned long long>(overload_escalations),
      static_cast<unsigned long long>(overload_recoveries));
  for (const OverloadTransition& t : transitions) {
    out += StrFormat(
        "  window %llu: level %d -> %d (queue %.0f%%, latency %.3fms)\n",
        static_cast<unsigned long long>(t.at_window), t.from, t.to,
        t.queue_fraction * 100.0, t.latency_seconds * 1e3);
  }
  out += StrFormat(
      "health          : %llu violations, %llu degrades, %llu recoveries, "
      "probes %llu/%llu\n",
      static_cast<unsigned long long>(health_violations),
      static_cast<unsigned long long>(health_degrades),
      static_cast<unsigned long long>(health_recoveries),
      static_cast<unsigned long long>(probes_passed),
      static_cast<unsigned long long>(probes_run));
  out += StrFormat(
      "windows flagged : quarantined %llu, degraded %llu\n",
      static_cast<unsigned long long>(windows_quarantined),
      static_cast<unsigned long long>(windows_degraded));
  if (source_read_errors > 0 || source_aborted) {
    out += StrFormat("source          : %llu read errors, %llu retries%s\n",
                     static_cast<unsigned long long>(source_read_errors),
                     static_cast<unsigned long long>(source_retries),
                     source_aborted ? ", ABORTED" : "");
  }
  if (!shards.empty()) {
    size_t pinned = 0;
    for (const ShardStats& s : shards) pinned += s.pinned ? 1 : 0;
    out += StrFormat("shards          : %zu (pinned %zu/%zu)\n",
                     shards.size(), pinned, shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      const ShardStats& s = shards[i];
      out += StrFormat(
          "  shard %zu: routed %llu, marked %llu, filter calls %llu, "
          "mark %.3fs, ring high-water %zu\n",
          i, static_cast<unsigned long long>(s.windows_routed),
          static_cast<unsigned long long>(s.windows_marked),
          static_cast<unsigned long long>(s.filter_calls), s.mark_seconds,
          s.work_high_water);
    }
  }
  if (checkpoints_written > 0) {
    out += StrFormat("checkpoints     : %llu written\n",
                     static_cast<unsigned long long>(checkpoints_written));
  }
  out += StrFormat("drift flags     : %llu\n",
                   static_cast<unsigned long long>(drift_flags));
  if (!engine_selected.empty()) {
    out += StrFormat("engine          : %s (%llu switches)\n",
                     engine_selected.c_str(),
                     static_cast<unsigned long long>(engine_switches));
  }
  out += StrFormat("matches         : %zu\n", matches);
  out += StrFormat("elapsed         : %.3fs (extract %.3fs)\n",
                   elapsed_seconds, extract_seconds);
  return out;
}

}  // namespace dlacep
