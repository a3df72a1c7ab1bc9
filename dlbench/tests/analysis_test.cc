// Self-tests for the benchmark's arithmetic: nearest-rank percentiles
// and span self time / critical-path accounting.

#include "analysis.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace dlbench {
namespace {

Span MakeSpan(const char* layer, double start, double end, int64_t parent,
              uint32_t thread) {
  Span span;
  span.layer = layer;
  span.name = layer;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.thread = thread;
  return span;
}

TEST(NearestRank, EmptyIsNan) {
  EXPECT_TRUE(std::isnan(NearestRank({}, 50.0)));
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(NearestRank, OneSampleIsEveryPercentile) {
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(NearestRank({7.5}, p), 7.5) << p;
  }
}

TEST(NearestRank, PicksObservedSamplesWithoutInterpolating) {
  const std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(NearestRank(samples, 0.0), 1.0);
  EXPECT_EQ(NearestRank(samples, 25.0), 1.0);
  EXPECT_EQ(NearestRank(samples, 26.0), 2.0);
  EXPECT_EQ(NearestRank(samples, 50.0), 2.0);
  EXPECT_EQ(NearestRank(samples, 75.0), 3.0);
  EXPECT_EQ(NearestRank(samples, 99.0), 4.0);
  EXPECT_EQ(NearestRank(samples, 100.0), 4.0);
}

TEST(NearestRank, TiesReturnTheTiedValue) {
  const std::vector<double> samples = {5.0, 5.0, 5.0, 9.0};
  EXPECT_EQ(NearestRank(samples, 50.0), 5.0);
  EXPECT_EQ(NearestRank(samples, 75.0), 5.0);
  EXPECT_EQ(NearestRank(samples, 76.0), 9.0);
}

TEST(NearestRank, ExactRankAtHundredSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(NearestRank(samples, 99.0), 99.0);
  EXPECT_EQ(NearestRank(samples, 50.0), 50.0);
  EXPECT_EQ(SamplesBeyond(100, 99.0), 1u);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
}

TEST(HighestSupportedPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(CoveredSeconds, UnionClipsAndMergesOverlaps) {
  EXPECT_EQ(CoveredSeconds({}, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{1, 3}, {2, 4}, {6, 7}}, 0.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{-5, 2}, {9, 15}}, 0.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{1, 9}, {2, 3}, {4, 5}}, 0.0, 10.0), 8.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{12, 15}}, 0.0, 10.0), 0.0);
}

TEST(SelfSeconds, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,10] > child [2,6] > grandchild [3,5].
  const std::vector<Span> spans = {
      MakeSpan("runtime", 0, 10, -1, 0),
      MakeSpan("dlacep", 2, 6, 0, 0),
      MakeSpan("nn", 3, 5, 1, 0),
  };
  const auto children = ChildrenOf(spans);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0, children), 6.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1, children), 2.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 2, children), 2.0);
}

TEST(SelfSeconds, OverlappingChildrenOnOtherThreadsCountOnce) {
  // Two shard threads mark concurrently under one Run on thread 0.
  const std::vector<Span> spans = {
      MakeSpan("runtime", 0, 10, -1, 0),
      MakeSpan("dlacep", 1, 5, 0, 1),
      MakeSpan("dlacep", 2, 6, 0, 2),
      MakeSpan("cep", 8, 10, 0, 0),
      MakeSpan("dlacep", 9, 12, 0, 1),  // runs past the parent's end
  };
  const auto children = ChildrenOf(spans);
  // Covered: [1,6] + [8,10] = 7.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0, children), 3.0);
}

TEST(CriticalPathSplit, PartsSumToTheParentAndFollowPriority) {
  const std::vector<Span> spans = {
      MakeSpan("runtime", 0, 10, -1, 0),
      MakeSpan("dlacep", 1, 5, 0, 1),
      MakeSpan("dlacep", 2, 6, 0, 2),
      MakeSpan("cep", 4, 8, 0, 0),
  };
  const auto children = ChildrenOf(spans);
  const auto split =
      CriticalPathSplit(spans, 0, children, {"cep", "dlacep", "runtime"});
  EXPECT_DOUBLE_EQ(split.at("cep"), 4.0);      // [4,8]
  EXPECT_DOUBLE_EQ(split.at("dlacep"), 3.0);   // [1,4]
  EXPECT_DOUBLE_EQ(split.at("runtime"), 3.0);  // [0,1] + [8,10]
  double total = 0.0;
  for (const auto& [layer, seconds] : split) total += seconds;
  EXPECT_DOUBLE_EQ(total, 10.0);
  EXPECT_DOUBLE_EQ(split.at("runtime"), SelfSeconds(spans, 0, children));
}

TEST(CriticalPathSplit, NoChildrenIsAllSelf) {
  const std::vector<Span> spans = {MakeSpan("runtime", 2, 7, -1, 0)};
  const auto split = CriticalPathSplit(spans, 0, ChildrenOf(spans), {});
  ASSERT_EQ(split.size(), 1u);
  EXPECT_DOUBLE_EQ(split.at("runtime"), 5.0);
}

TEST(CriticalPathSplit, TouchingChildrenLeaveNoGap) {
  const std::vector<Span> spans = {
      MakeSpan("runtime", 0, 4, -1, 0),
      MakeSpan("dlacep", 0, 2, 0, 1),
      MakeSpan("cep", 2, 4, 0, 0),
  };
  const auto split =
      CriticalPathSplit(spans, 0, ChildrenOf(spans), {"cep", "dlacep"});
  EXPECT_DOUBLE_EQ(split.at("runtime"), 0.0);
  EXPECT_DOUBLE_EQ(split.at("dlacep"), 2.0);
  EXPECT_DOUBLE_EQ(split.at("cep"), 2.0);
}

}  // namespace
}  // namespace dlbench
