// Tests of the benchmark harness's own logic: tail-percentile selection,
// span self time, request-sequence determinism, and provenance
// classification.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/diameter.h"
#include "graph/generator.h"
#include "quality/workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(SupportedTail, PicksHighestLadderStepWithTenBeyond) {
  // 1000 samples: p99.9 leaves 1 above; p99 leaves 10.
  auto tail = SupportedTail(OneTo(1000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
  EXPECT_EQ(tail->samples, 1000u);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_DOUBLE_EQ(tail->value, 990.0);

  // One sample fewer and p99 has only 9 beyond: the ladder drops to p95.
  tail = SupportedTail(OneTo(999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 95.0);
  EXPECT_EQ(tail->beyond, 49u);
  EXPECT_DOUBLE_EQ(tail->value, 950.0);

  tail = SupportedTail(OneTo(9999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
  EXPECT_EQ(tail->beyond, 99u);

  tail = SupportedTail(OneTo(20000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.9);
  EXPECT_EQ(tail->beyond, 20u);
}

TEST(SupportedTail, OrderOfSamplesDoesNotMatterAndSmallSamplesFallBack) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  auto tail = SupportedTail(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 95.0);
  EXPECT_DOUBLE_EQ(tail->value, 190.0);

  tail = SupportedTail(OneTo(20));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 50.0);
  EXPECT_EQ(tail->beyond, 10u);

  EXPECT_FALSE(SupportedTail(OneTo(19)).has_value());
  EXPECT_FALSE(SupportedTail({}).has_value());
}

TEST(SupportedTail, NeverReportsAPercentileWithFewerThanTenBeyond) {
  for (size_t n = 20; n < 3000; n += 37) {
    auto tail = SupportedTail(OneTo(n));
    ASSERT_TRUE(tail.has_value()) << n;
    EXPECT_GE(tail->beyond, 10u) << n;
    EXPECT_EQ(tail->beyond, n - static_cast<size_t>(tail->value)) << n;
  }
}

TEST(LatencyLog, QuantilesMatchExactRanksWithinABucket) {
  LatencyLog a, b;
  std::vector<double> all;
  gpm::Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    // Log-uniform from 1 us to 100 ms, like a hit/miss mix.
    const double ms = 1e-3 * std::pow(1e5, rng.NextDouble());
    (i % 2 == 0 ? a : b).Record(ms);
    all.push_back(ms);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.size());
  std::sort(all.begin(), all.end());
  const double exact_median = all[(all.size() + 1) / 2 - 1];
  EXPECT_NEAR(a.Median(), exact_median, exact_median * 0.005);
  const auto tail = a.Tail();
  const auto exact = SupportedTail(all);
  ASSERT_TRUE(tail.has_value());
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.9);
  EXPECT_EQ(tail->beyond, exact->beyond);
  EXPECT_NEAR(tail->value, exact->value, exact->value * 0.005);
  for (double q : {0.1, 0.25, 0.75, 0.9}) {
    const double exact_q =
        all[static_cast<size_t>(std::ceil(q * all.size())) - 1];
    EXPECT_NEAR(a.Quantile(q), exact_q, exact_q * 0.005) << q;
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), a.Median());
  EXPECT_EQ(LatencyLog().Quantile(0.5), 0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(SelfTimes, SubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {"parent", 0, 10, -1, 0, 0},
      {"a", 1, 3, 0, 0, 0},
      {"b", 2, 5, 0, 0, 0},    // overlaps a: the union [1, 5] counts once
      {"c", 8, 12, 0, 0, 0},   // clipped to the parent: [8, 10]
      {"c.child", 9, 11, 3, 0, 0},
      {"other", 0, 4, -1, 1, 0},  // unrelated root
  };
  const std::vector<double> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0 - 2.0);  // grandchild only affects c
  EXPECT_DOUBLE_EQ(self[4], 2.0);
  EXPECT_DOUBLE_EQ(self[5], 4.0);
}

TEST(SelfTimes, RecorderScopesNest) {
  SpanRecorder rec;
  {
    SpanRecorder::Scope outer(&rec, "outer", -1, 7);
    SpanRecorder::Scope inner(&rec, "inner", outer.index(), 7);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_GE(spans[0].end_ms, spans[1].end_ms);
  const auto self = SelfTimes(spans);
  EXPECT_GE(self[0], 0.0);
  EXPECT_NEAR(self[0] + self[1], spans[0].duration_ms(), 1e-9);
}

TEST(ZipfSequence, DeterministicPerSeedAndSkewed) {
  const auto a = ZipfSequence(32, 1.0, 42, 20000);
  const auto b = ZipfSequence(32, 1.0, 42, 20000);
  const auto c = ZipfSequence(32, 1.0, 43, 20000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::vector<size_t> counts(32, 0);
  for (uint32_t v : a) {
    ASSERT_LT(v, 32u);
    ++counts[v];
  }
  // Rank 0 is the most popular; with s = 1 it draws about 1/H(32) ~ 25%.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  EXPECT_GT(counts[0], counts[31] * 10);
}

TEST(FreshPatterns, DeterministicDistinctAndWithinDiameter) {
  const gpm::Graph g = gpm::MakeDataset(gpm::DatasetKind::kAmazonLike, 2000,
                                        5, 1.2, gpm::ScaledLabelCount(2000));
  std::unordered_set<uint64_t> seen_a, seen_b;
  gpm::Rng rng_a(9), rng_b(9);
  const auto a = FreshPatterns(g, 5, 2, 50, &rng_a, &seen_a);
  const auto b = FreshPatterns(g, 5, 2, 50, &rng_b, &seen_b);
  ASSERT_EQ(a.size(), 50u);
  ASSERT_EQ(b.size(), a.size());
  std::unordered_set<uint64_t> ids;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ContentHash(), b[i].ContentHash());
    auto diameter = gpm::Diameter(a[i]);
    ASSERT_TRUE(diameter.ok());
    EXPECT_LE(*diameter, 2u);
    EXPECT_TRUE(ids.insert(PatternIdentity(a[i])).second);
  }
}

TEST(Classify, UsesFlagsOnly) {
  gpm::MatchStats stats;
  EXPECT_EQ(Classify(stats), Provenance::kCold);

  // A result-cache hit carries the stage times of the cold run that
  // filled the entry; they must not make it look executed.
  stats.result_cache_hits = 1;
  stats.global_filter_seconds = 0.010;
  stats.ball_build_seconds = 0.021;
  stats.refine_seconds = 0.004;
  stats.balls_considered = 120;
  EXPECT_EQ(Classify(stats), Provenance::kResultHit);
  EXPECT_TRUE(IsHit(Classify(stats)));

  stats.result_served_equivalent = 1;
  EXPECT_EQ(Classify(stats), Provenance::kEquivalentServe);
  EXPECT_TRUE(IsHit(Classify(stats)));

  gpm::MatchStats executed;
  executed.filter_cache_hits = 1;
  EXPECT_EQ(Classify(executed), Provenance::kFilterHit);
  executed.filter_seeded_containment = 1;
  EXPECT_EQ(Classify(executed), Provenance::kSeededFilter);
  EXPECT_FALSE(IsHit(Classify(executed)));
}

TEST(Classify, RealResultHitIsAHitDespiteCopiedStageTimes) {
  const gpm::Graph g = gpm::MakeDataset(gpm::DatasetKind::kAmazonLike, 3000,
                                        11, 1.2, gpm::ScaledLabelCount(3000));
  gpm::Rng rng(3);
  std::unordered_set<uint64_t> seen;
  const auto patterns = FreshPatterns(g, 4, 2, 1, &rng, &seen);
  ASSERT_EQ(patterns.size(), 1u);
  gpm::Engine engine;
  auto pq = engine.PrepareCached(patterns[0]);
  ASSERT_TRUE(pq.ok());
  gpm::MatchRequest request;
  request.algo = gpm::Algo::kStrongPlus;
  auto cold = engine.Match(**pq, g, request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Classify(cold->stats), Provenance::kCold);
  auto hit = engine.Match(**pq, g, request);
  ASSERT_TRUE(hit.ok());
  EXPECT_GT(hit->stats.global_filter_seconds, 0.0);
  EXPECT_EQ(Classify(hit->stats), Provenance::kResultHit);
}

}  // namespace
}  // namespace perfbench
