// Pure arithmetic behind the benchmark's reported numbers: nearest-rank
// percentiles over raw samples, medians, and span self time.
//
// Kept free of any DLACEP dependency so tests/analysis_test.cc can pin
// the edge cases (empty inputs, ties, nested and cross-thread
// overlapping spans) without building a workload.

#ifndef DLBENCH_ANALYSIS_H_
#define DLBENCH_ANALYSIS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dlbench {

/// One timed call. `parent` indexes the caller's span in the same
/// vector (-1 for a root); children may run on other threads than their
/// parent, so sibling intervals can overlap.
struct Span {
  std::string layer;  ///< module the call enters ("dlacep", "cep", ...)
  std::string name;   ///< the call ("mark", "extract", "run", ...)
  double start = 0.0;  ///< seconds on the benchmark clock
  double end = 0.0;
  int64_t parent = -1;
  uint32_t thread = 0;
  uint32_t run = 0;  ///< repetition the span belongs to
};

/// Nearest-rank percentile of `samples` for p in [0, 100]: the smallest
/// sample with at least p% of the samples at or below it. Returns NaN
/// for an empty input. Never interpolates, so the result is always an
/// observed sample.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Number of samples strictly above the nearest-rank position for p.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

/// The highest of the standard reporting percentiles that still has at
/// least `min_beyond` samples above it (0 when even the median lacks
/// them).
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
inline double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                             double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, cursor);
    if (b > from) {
      covered += b - from;
      cursor = b;
    }
  }
  return covered;
}

/// Indices of the direct children of every span (by parent index).
inline std::vector<std::vector<size_t>> ChildrenOf(
    const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  return children;
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover. Children on other threads may overlap each
/// other; the overlap is counted once.
inline double SelfSeconds(const std::vector<Span>& spans, size_t index,
                          const std::vector<std::vector<size_t>>& children) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const size_t c : children[index]) {
    covered.emplace_back(spans[c].start, spans[c].end);
  }
  return (span.end - span.start) -
         CoveredSeconds(std::move(covered), span.start, span.end);
}

/// Splits the interval of span `index` into the time its own layer ran
/// alone (key = that span's layer) and, for every instant some child
/// ran, the layer of one active child: the layer listed first in
/// `priority`, or the alphabetically first unlisted one. The parts sum
/// to the span's duration exactly, which is the time-accounting
/// identity the benchmark checks against its own stopwatch.
inline std::map<std::string, double> CriticalPathSplit(
    const std::vector<Span>& spans, size_t index,
    const std::vector<std::vector<size_t>>& children,
    const std::vector<std::string>& priority) {
  const Span& root = spans[index];
  auto rank_of = [&](const std::string& layer) {
    const auto it = std::find(priority.begin(), priority.end(), layer);
    return static_cast<size_t>(it - priority.begin());
  };
  // Boundary sweep over child start/end points inside the root.
  std::vector<std::pair<double, int64_t>> points;  // (time, ±(child+1))
  for (const size_t c : children[index]) {
    const double a = std::max(spans[c].start, root.start);
    const double b = std::min(spans[c].end, root.end);
    if (b <= a) continue;
    points.emplace_back(a, static_cast<int64_t>(c) + 1);
    points.emplace_back(b, -(static_cast<int64_t>(c) + 1));
  }
  std::sort(points.begin(), points.end());
  std::map<std::string, double> split;
  split[root.layer] += 0.0;
  std::map<std::pair<size_t, std::string>, int> active;  // (rank, layer)
  double cursor = root.start;
  for (const auto& [t, signed_child] : points) {
    if (t > cursor) {
      const std::string& owner =
          active.empty() ? root.layer : active.begin()->first.second;
      split[owner] += t - cursor;
      cursor = t;
    }
    const Span& child = spans[static_cast<size_t>(std::abs(signed_child) - 1)];
    const auto key = std::make_pair(rank_of(child.layer), child.layer);
    if (signed_child > 0) {
      ++active[key];
    } else if (--active[key] == 0) {
      active.erase(key);
    }
  }
  if (root.end > cursor) split[root.layer] += root.end - cursor;
  return split;
}

}  // namespace dlbench

#endif  // DLBENCH_ANALYSIS_H_
