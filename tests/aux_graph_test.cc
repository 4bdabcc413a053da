// Differential suite for the pruned auxiliary-graph ball executor
// (matching/aux_graph.h): whatever the pruned adjacency and the landmark
// center index skip, every executor must return byte-identical results —
// aux vs no-aux, serial vs parallel vs distributed, lone vs batched,
// cached vs uncached, at the default and at bounded ball radii — and the
// engine's aux-graph memo must follow the same invalidation contract as
// the filter memos it derives from. The aux ball builder's multi-source
// sweep is checked ball by ball against per-center BFS, and the landmark
// pass against its skip rule at the filter's witness radius.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/random.h"
#include "extensions/regex_pattern.h"
#include "extensions/regex_strong.h"
#include "graph/csr_graph.h"
#include "graph/generator.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/parallel_match.h"
#include "matching/strong_simulation.h"
#include "tests/test_util.h"

namespace gpm {
namespace {

// An engine that always computes: the differential baseline.
Engine UncachedEngine() {
  EngineOptions options;
  options.prepared_cache_capacity = 0;
  options.filter_cache_capacity = 0;
  options.regex_filter_cache_capacity = 0;
  options.result_cache_capacity = 0;
  options.csr_snapshot_cache_capacity = 0;
  options.aux_graph_cache_capacity = 0;
  return Engine(options);
}

MatchRequest Request(Algo algo, ExecPolicy policy = ExecPolicy::Serial()) {
  MatchRequest request;
  request.algo = algo;
  request.policy = policy;
  return request;
}

void ExpectSameResults(const std::vector<PerfectSubgraph>& expected,
                       const std::vector<PerfectSubgraph>& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    const PerfectSubgraph& e = expected[i];
    const PerfectSubgraph& a = actual[i];
    EXPECT_EQ(e.center, a.center) << what << " #" << i;
    EXPECT_EQ(e.radius, a.radius) << what << " #" << i;
    EXPECT_EQ(e.nodes, a.nodes) << what << " #" << i;
    EXPECT_EQ(e.edges, a.edges) << what << " #" << i;
    EXPECT_EQ(e.relation.sim, a.relation.sim) << what << " #" << i;
  }
}

struct Workload {
  Graph g;
  std::vector<Graph> patterns;
};

Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.g = MakeAmazonLike(/*n=*/220, seed, /*num_labels=*/10);
  Rng rng(seed * 977 + 11);
  for (int i = 0; i < 2; ++i) {
    auto q = ExtractPattern(w.g, /*nq=*/4 + i, &rng);
    if (q.ok()) w.patterns.push_back(std::move(*q));
  }
  w.patterns.push_back(RandomPattern(/*nq=*/4, /*alphaq=*/1.2,
                                     w.g.DistinctLabels(), seed * 31 + 7));
  return w;
}

// One Build request: a center and the radius to build it at.
using BallRequest = std::pair<NodeId, uint32_t>;

bool RuleKeepsLabel(const AuxEdgeRule& rule, EdgeLabel label) {
  return !rule.by_label || rule.any_label ||
         std::binary_search(rule.labels.begin(), rule.labels.end(), label);
}

// Builds every requested ball through one AuxBallBuilder (so sweeps and
// their lanes carry over between requests) and checks each against the
// per-center BFS ball projected onto aux.kept: the same member set and
// border flags, the center at local 0, and exactly the full ball's
// labelled edges between kept members that `rule` keeps.
void ExpectSweepMatchesBfs(const CsrGraph& csr, const AuxGraphResult& aux,
                           const AuxEdgeRule& rule,
                           const std::vector<BallRequest>& requests,
                           const std::string& what,
                           NodeId lane_end =
                               std::numeric_limits<NodeId>::max()) {
  using LabeledEdge = std::tuple<NodeId, NodeId, EdgeLabel>;
  AuxBallBuilder swept_builder(csr, aux);
  swept_builder.SetLaneEnd(lane_end);
  CsrBallBuilder full_builder(csr);
  Ball swept, full;
  for (const auto& [center, radius] : requests) {
    SCOPED_TRACE(what + " center=" + std::to_string(center) +
                 " radius=" + std::to_string(radius));
    swept_builder.Build(center, radius, &swept);
    full_builder.Build(center, radius, &full);
    ASSERT_EQ(swept.center, center);
    ASSERT_EQ(swept.radius, radius);
    ASSERT_FALSE(swept.to_global.empty());
    EXPECT_EQ(swept.to_global[swept.LocalCenter()], center);
    ASSERT_EQ(swept.is_border.size(), swept.to_global.size());

    std::map<NodeId, bool> want_border, got_border;
    for (NodeId local = 0; local < full.to_global.size(); ++local) {
      if (aux.kept.Test(full.to_global[local])) {
        want_border[full.to_global[local]] = full.is_border[local];
      }
    }
    for (NodeId local = 0; local < swept.to_global.size(); ++local) {
      got_border[swept.to_global[local]] = swept.is_border[local];
    }
    EXPECT_EQ(got_border.size(), swept.to_global.size()) << "repeated member";
    EXPECT_EQ(want_border, got_border);

    std::set<LabeledEdge> want_edges, got_edges;
    for (NodeId lu = 0; lu < full.graph.num_nodes(); ++lu) {
      const auto targets = full.graph.OutNeighbors(lu);
      const auto labels = full.graph.OutEdgeLabels(lu);
      for (size_t i = 0; i < targets.size(); ++i) {
        const NodeId u = full.to_global[lu];
        const NodeId v = full.to_global[targets[i]];
        if (aux.kept.Test(u) && aux.kept.Test(v) &&
            RuleKeepsLabel(rule, labels[i])) {
          want_edges.emplace(u, v, labels[i]);
        }
      }
    }
    for (NodeId lu = 0; lu < swept.graph.num_nodes(); ++lu) {
      const auto targets = swept.graph.OutNeighbors(lu);
      const auto labels = swept.graph.OutEdgeLabels(lu);
      for (size_t i = 0; i < targets.size(); ++i) {
        got_edges.emplace(swept.to_global[lu], swept.to_global[targets[i]],
                          labels[i]);
      }
    }
    EXPECT_EQ(want_edges, got_edges);
  }
}

// The center orders a ball loop (or a caller) may request, over `aux`'s
// centers at `radius`: ascending (the serial scan), descending, random,
// each center twice, a start in the middle, a parallel shard (the middle
// third, its lanes bounded by the next shard's first center), one-lane
// sweeps (every lane bound past the second center), a radius change every
// 20 centers, and kept nodes that are not aux centers mixed in.
void ExpectSweepMatchesBfsInEveryOrder(const CsrGraph& csr,
                                       const AuxGraphResult& aux,
                                       const AuxEdgeRule& rule,
                                       uint32_t radius, uint64_t seed) {
  const std::vector<NodeId>& centers = aux.centers;
  ASSERT_GE(centers.size(), 3u);
  auto at = [&](const std::vector<NodeId>& order) {
    std::vector<BallRequest> requests;
    for (NodeId c : order) requests.emplace_back(c, radius);
    return requests;
  };
  ExpectSweepMatchesBfs(csr, aux, rule, at(centers), "ascending");
  ExpectSweepMatchesBfs(csr, aux, rule,
                        at({centers.rbegin(), centers.rend()}), "descending");
  std::vector<NodeId> shuffled = centers;
  Rng rng(seed);
  rng.Shuffle(&shuffled);
  ExpectSweepMatchesBfs(csr, aux, rule, at(shuffled), "random");
  std::vector<NodeId> repeated;
  for (NodeId c : centers) {
    repeated.push_back(c);
    repeated.push_back(c);
  }
  repeated.insert(repeated.end(), centers.begin(), centers.end());
  ExpectSweepMatchesBfs(csr, aux, rule, at(repeated), "repeated");
  ExpectSweepMatchesBfs(
      csr, aux, rule,
      at({centers.begin() + static_cast<std::ptrdiff_t>(centers.size() / 2),
          centers.end()}),
      "middle start");
  const auto third = static_cast<std::ptrdiff_t>(centers.size() / 3);
  ExpectSweepMatchesBfs(
      csr, aux, rule,
      at({centers.begin() + third, centers.begin() + 2 * third}), "shard",
      /*lane_end=*/centers[static_cast<size_t>(2 * third)]);
  ExpectSweepMatchesBfs(csr, aux, rule, at(centers), "one lane",
                        /*lane_end=*/centers[1]);
  std::vector<BallRequest> radius_change;
  for (size_t i = 0; i < centers.size(); ++i) {
    radius_change.emplace_back(centers[i],
                               (i / 20) % 2 == 0 ? radius : radius - 1);
  }
  ExpectSweepMatchesBfs(csr, aux, rule, radius_change, "radius change");
  std::vector<NodeId> with_outsiders;
  size_t outsiders = 0;
  size_t next_center = 0;
  aux.kept.ForEach([&](size_t v) {
    const NodeId node = static_cast<NodeId>(v);
    if (std::binary_search(centers.begin(), centers.end(), node)) return;
    // Each outsider sits between aux centers, so it sweeps from the
    // middle of the list and the next center is one of its lanes.
    while (next_center < centers.size() && centers[next_center] < node) {
      with_outsiders.push_back(centers[next_center++]);
    }
    with_outsiders.push_back(node);
    ++outsiders;
  });
  with_outsiders.insert(with_outsiders.end(),
                        centers.begin() +
                            static_cast<std::ptrdiff_t>(next_center),
                        centers.end());
  EXPECT_GT(outsiders, 0u) << "no kept node outside aux.centers";
  ExpectSweepMatchesBfs(csr, aux, rule, at(with_outsiders), "outsiders");
}

// A graph with few labels, so 2-node patterns keep well over 64 centers
// and one scan wraps its lanes.
struct SweepWorkload {
  Graph g;
  CsrGraph csr;
  Graph pattern;
};

SweepWorkload MakeSweepWorkload() {
  SweepWorkload w;
  w.g = MakeAmazonLike(/*n=*/400, /*seed=*/13, /*num_labels=*/3);
  w.csr = CsrGraph::FromGraph(w.g);
  Rng rng(1301);
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto q = ExtractPattern(w.g, /*nq=*/3, &rng);
    if (!q.ok()) continue;
    auto filter = ComputeDualFilter(*q, w.g, /*minimize_query=*/false);
    if (filter.ok() && filter->centers.size() > 130) {
      w.pattern = std::move(*q);
      break;
    }
  }
  return w;
}

// Plain rule: the sweep's balls at the default radius (no landmark skips,
// so kept nodes outside aux.centers come from a radius-1 aux graph, whose
// landmark pass removed them) and at radius 1.
TEST(AuxGraphTest, SweepBallsMatchPerCenterBfsPlain) {
  const SweepWorkload w = MakeSweepWorkload();
  ASSERT_GT(w.pattern.num_nodes(), 0u) << "no pattern with > 130 centers";
  auto prep = PreparePattern(w.pattern, /*minimize=*/false);
  ASSERT_TRUE(prep.ok());
  auto filter = ComputeDualFilter(w.pattern, w.g, false, &*prep);
  ASSERT_TRUE(filter.ok());
  const uint32_t diameter = std::max<uint32_t>(prep->diameter, 2);
  const AuxGraphResult wide = BuildAuxGraph(w.csr, *filter, diameter);
  ASSERT_GT(wide.centers.size(), 128u);  // lanes wrap at least twice
  // Every kept node is a center here; the radius-1 graph skips some.
  const AuxGraphResult narrow = BuildAuxGraph(w.csr, *filter, 1);
  ASSERT_GT(narrow.centers_skipped_index, 0u);
  std::vector<BallRequest> requests;
  for (NodeId c : filter->centers) requests.emplace_back(c, diameter);
  ExpectSweepMatchesBfs(w.csr, wide, {}, requests, "wide ascending");
  // Radius 0 (the center is the border) and a radius past every node's
  // eccentricity (the sweep runs dry before its last level: no border).
  std::vector<BallRequest> extremes;
  for (uint32_t radius : {0u, 64u}) {
    for (size_t i = 0; i < 8; ++i) {
      extremes.emplace_back(filter->centers[i * 16], radius);
    }
  }
  ExpectSweepMatchesBfs(w.csr, wide, {}, extremes, "radius 0 and 64");
  ExpectSweepMatchesBfsInEveryOrder(w.csr, narrow, {}, /*radius=*/2, 41);
}

// Regex rule (edges kept by label, kept nodes = survivors plus kept-edge
// endpoints): the same orders over a regex filter's aux graph.
TEST(AuxGraphTest, SweepBallsMatchPerCenterBfsRegex) {
  const SweepWorkload w = MakeSweepWorkload();
  ASSERT_GT(w.pattern.num_nodes(), 0u);
  RegexQuery query(w.pattern);
  AuxEdgeRule rule;
  rule.by_label = true;
  for (NodeId u = 0; u < w.pattern.num_nodes(); ++u) {
    for (NodeId v : w.pattern.OutNeighbors(u)) {
      ASSERT_TRUE(query.SetConstraint(u, v, {RegexAtom{0, 1, 1}}).ok());
    }
  }
  rule.labels = {0};
  auto filter = ComputeRegexFilter(query, w.g);
  ASSERT_TRUE(filter.ok());
  ASSERT_FALSE(filter->proven_empty);
  const uint32_t radius = DefaultRegexRadius(query);
  const AuxGraphResult aux = BuildAuxGraph(w.csr, *filter, radius, rule);
  ASSERT_GT(aux.centers.size(), 64u);
  ExpectSweepMatchesBfsInEveryOrder(w.csr, aux, rule, radius, 43);
}

// Builds at `radius` with `filter` as given and with its witness radius
// reset to unknown (which forces the landmark pass): the pass must find
// nothing to remove, so both keep every filter center.
void ExpectLandmarkNoOp(const CsrGraph& csr, const DualFilterResult& filter,
                        uint32_t radius, const AuxEdgeRule& rule = {}) {
  ASSERT_GE(radius, filter.witness_radius);
  DualFilterResult forced = filter;
  forced.witness_radius = kUnknownWitnessRadius;
  const AuxGraphResult skipped = BuildAuxGraph(csr, filter, radius, rule);
  const AuxGraphResult ran = BuildAuxGraph(csr, forced, radius, rule);
  EXPECT_EQ(skipped.centers, ran.centers);
  EXPECT_EQ(skipped.centers, filter.centers);
  EXPECT_EQ(skipped.centers_skipped_index, 0u);
  EXPECT_EQ(ran.centers_skipped_index, 0u);
}

// The witness radius every filter producer sets, and the skip it allows:
// at radius >= witness_radius the landmark pass is a no-op (plain filters
// with and without minQ, a containment-seeded filter, a bounded regex
// filter); below it the pass still runs and fires; an unbounded regex
// atom leaves the bound unknown.
TEST(AuxGraphTest, LandmarkPassIsNoOpAtWitnessRadius) {
  size_t skipped_at_one = 0;
  for (uint64_t seed : {5u, 7u, 23u}) {
    const Workload w = MakeWorkload(seed);
    const CsrGraph csr = CsrGraph::FromGraph(w.g);
    for (size_t pi = 0; pi < w.patterns.size(); ++pi) {
      const Graph& pattern = w.patterns[pi];
      auto prep = PreparePattern(pattern, /*minimize=*/true);
      if (!prep.ok()) continue;
      for (bool minimize : {false, true}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" +
                     std::to_string(pi) + " minimize=" +
                     std::to_string(minimize));
        auto filter = ComputeDualFilter(pattern, w.g, minimize, &*prep);
        ASSERT_TRUE(filter.ok());
        if (filter->proven_empty) continue;
        EXPECT_EQ(filter->witness_radius, prep->diameter);
        ExpectLandmarkNoOp(csr, *filter, prep->diameter);
        if (prep->diameter > 1) {
          skipped_at_one +=
              BuildAuxGraph(csr, *filter, 1).centers_skipped_index;
        }
        // Seeded from whole label classes: a superset of the maximum
        // relation, as the containment seeds are.
        const Graph& qeff = minimize ? prep->minimized : pattern;
        std::vector<std::vector<NodeId>> initial(qeff.num_nodes());
        for (NodeId u = 0; u < qeff.num_nodes(); ++u) {
          const auto cls = w.g.NodesWithLabel(qeff.label(u));
          initial[u].assign(cls.begin(), cls.end());
        }
        auto seeded =
            ComputeDualFilterSeeded(pattern, w.g, minimize, &*prep, initial);
        ASSERT_TRUE(seeded.ok());
        EXPECT_EQ(seeded->centers, filter->centers);
        EXPECT_EQ(seeded->witness_radius, prep->diameter);
        ExpectLandmarkNoOp(csr, *seeded, prep->diameter);
      }
    }
  }
  EXPECT_GT(skipped_at_one, 0u);

  const Workload w = MakeWorkload(19);
  const CsrGraph csr = CsrGraph::FromGraph(w.g);
  Rng rng(1903);
  auto extracted = ExtractPattern(w.g, /*nq=*/4, &rng);
  ASSERT_TRUE(extracted.ok());
  RegexQuery bounded(*extracted);
  RegexQuery unbounded(*extracted);
  AuxEdgeRule rule;
  rule.by_label = true;
  rule.labels = {0, 1};
  for (NodeId u = 0; u < extracted->num_nodes(); ++u) {
    for (NodeId v : extracted->OutNeighbors(u)) {
      ASSERT_TRUE(bounded.SetConstraint(u, v, {RegexAtom{0, 1, 2},
                                               RegexAtom{1, 0, 1}})
                      .ok());
      ASSERT_TRUE(
          unbounded.SetConstraint(u, v, {RegexAtom{0, 1, kUnboundedReps}})
              .ok());
    }
  }
  auto bounded_filter = ComputeRegexFilter(bounded, w.g);
  ASSERT_TRUE(bounded_filter.ok());
  ASSERT_FALSE(bounded_filter->proven_empty);
  EXPECT_EQ(bounded_filter->witness_radius, DefaultRegexRadius(bounded));
  ExpectLandmarkNoOp(csr, *bounded_filter, DefaultRegexRadius(bounded), rule);
  auto unbounded_filter = ComputeRegexFilter(unbounded, w.g);
  ASSERT_TRUE(unbounded_filter.ok());
  EXPECT_EQ(unbounded_filter->witness_radius, kUnknownWitnessRadius);
}

// The structural invariants of BuildAuxGraph: the landmark index
// partitions the filter's centers, the surviving list stays an ascending
// subsequence (so the serial min-center dedup representatives are
// unchanged), and at the pattern diameter the index never fires — every
// dual-filter survivor has its witnesses within dQ by construction.
TEST(AuxGraphTest, LandmarkIndexPartitionsFilterCenters) {
  const Workload w = MakeWorkload(5);
  const CsrGraph csr = CsrGraph::FromGraph(w.g);
  const Engine engine = UncachedEngine();
  for (const Graph& pattern : w.patterns) {
    auto query = engine.Prepare(pattern);
    ASSERT_TRUE(query.ok());
    if (!query->strong_status().ok()) continue;
    auto filter =
        ComputeDualFilter(pattern, w.g, /*minimize_query=*/false,
                          &query->prep());
    ASSERT_TRUE(filter.ok());
    if (filter->proven_empty) continue;
    for (uint32_t radius : {query->diameter(), 1u}) {
      const AuxGraphResult aux = BuildAuxGraph(csr, *filter, radius);
      EXPECT_EQ(aux.radius, radius);
      EXPECT_EQ(aux.centers.size() + aux.centers_skipped_index,
                filter->centers.size());
      EXPECT_TRUE(std::is_sorted(aux.centers.begin(), aux.centers.end()));
      EXPECT_TRUE(std::includes(filter->centers.begin(),
                                filter->centers.end(), aux.centers.begin(),
                                aux.centers.end()));
      for (NodeId center : aux.centers) EXPECT_TRUE(aux.kept.Test(center));
      if (radius == query->diameter()) {
        EXPECT_EQ(aux.centers_skipped_index, 0u);
      }
    }
  }
}

// Matcher-layer differential: the dual-filtered run (which executes over
// the pruned auxiliary adjacency) returns exactly what the unfiltered
// full-graph run does, serial and parallel, at the default and at a
// bounded radius.
TEST(AuxGraphTest, PrunedExecutorMatchesUnfiltered) {
  for (uint64_t seed : {7u, 23u}) {
    const Workload w = MakeWorkload(seed);
    for (size_t pi = 0; pi < w.patterns.size(); ++pi) {
      const Graph& pattern = w.patterns[pi];
      for (uint32_t radius_override : {0u, 1u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" +
                     std::to_string(pi) + " radius=" +
                     std::to_string(radius_override));
        MatchOptions plain;
        plain.radius_override = radius_override;
        auto baseline = MatchStrong(pattern, w.g, plain);
        MatchOptions filtered = plain;
        filtered.dual_filter = true;
        auto pruned = MatchStrong(pattern, w.g, filtered);
        ASSERT_EQ(baseline.ok(), pruned.ok());
        if (!baseline.ok()) continue;
        ExpectSameResults(*baseline, *pruned, "serial aux");
        auto parallel = MatchStrongParallel(pattern, w.g, filtered,
                                            /*num_threads=*/3);
        ASSERT_TRUE(parallel.ok());
        ExpectSameResults(*baseline, *parallel, "parallel aux");
      }
    }
  }
}

// Engine-layer differential: cached engine (aux memo on) vs uncached
// baseline across policies and radii, plain and regex, lone and batched —
// including duplicate batch items, which hit the aux memo the first one
// filled.
TEST(AuxGraphTest, EngineCachedAndBatchedMatchUncached) {
  const Workload w = MakeWorkload(11);
  const Engine baseline_engine = UncachedEngine();
  const Engine cached_engine;  // defaults: every cache on
  const ExecPolicy policies[] = {ExecPolicy::Serial(), ExecPolicy::Parallel(3)};
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const Graph& pattern : w.patterns) {
    auto pq = cached_engine.PrepareCached(pattern);
    ASSERT_TRUE(pq.ok());
    prepared.push_back(*pq);
  }
  for (uint32_t radius_override : {0u, 1u}) {
    std::vector<BatchItem> items;
    std::vector<std::vector<PerfectSubgraph>> lone;
    for (size_t pi = 0; pi < w.patterns.size(); ++pi) {
      auto baseline_q = baseline_engine.Prepare(w.patterns[pi]);
      ASSERT_TRUE(baseline_q.ok());
      MatchRequest request = Request(Algo::kStrongPlus);
      request.options.radius_override = radius_override;
      auto baseline = baseline_engine.Match(*baseline_q, w.g, request);
      ASSERT_TRUE(baseline.ok());
      for (const ExecPolicy& policy : policies) {
        SCOPED_TRACE("pattern=" + std::to_string(pi) + " radius=" +
                     std::to_string(radius_override) + " policy=" +
                     std::string(ExecPolicyName(policy.kind)));
        MatchRequest cached_request = Request(Algo::kStrongPlus, policy);
        cached_request.options.radius_override = radius_override;
        for (int repeat = 0; repeat < 2; ++repeat) {
          auto got =
              cached_engine.Match(*prepared[pi], w.g, cached_request);
          ASSERT_TRUE(got.ok());
          ExpectSameResults(baseline->subgraphs, got->subgraphs,
                            repeat == 0 ? "cold" : "warm");
        }
      }
      // Two duplicate batch items per pattern: the duplicates share one
      // aux memo (and therefore one pruned-adjacency group).
      MatchRequest batch_request = Request(Algo::kStrongPlus);
      batch_request.options.radius_override = radius_override;
      items.push_back({prepared[pi].get(), batch_request, {}});
      items.push_back({prepared[pi].get(), batch_request, {}});
      lone.push_back(baseline->subgraphs);
    }
    auto responses = cached_engine.MatchBatch(w.g, items);
    ASSERT_EQ(responses.size(), items.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
      ExpectSameResults(lone[i / 2], (*responses[i]).subgraphs,
                        "batch item " + std::to_string(i));
    }
  }
  const EngineCacheStats stats = cached_engine.cache_stats();
  EXPECT_GT(stats.aux.lookups, 0u);
  EXPECT_GT(stats.aux.hits, 0u);  // warm repeats + duplicate batch items
}

// Regex runs: the aux path (always on for in-process regex executors)
// agrees with the Distributed executor, which never sees an aux graph;
// per-item options — dedup and radius_override — are honored by lone and
// batched runs alike (the satellite-2 contract).
TEST(AuxGraphTest, RegexAuxAgreesAcrossExecutorsAndBatch) {
  const Workload w = MakeWorkload(19);
  Rng rng(1903);
  auto extracted = ExtractPattern(w.g, /*nq=*/4, &rng);
  ASSERT_TRUE(extracted.ok());
  RegexQuery query(std::move(*extracted));
  const Graph& pattern = query.pattern();
  bool first = true;
  for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
    for (NodeId v : pattern.OutNeighbors(u)) {
      // One wildcard two-hop constraint, label hops elsewhere: exercises
      // both the any-label and the by-label kept-edge rules.
      if (first) {
        (void)query.SetConstraint(u, v, {RegexAtom{kAnyEdgeLabel, 1, 2}});
        first = false;
      } else {
        (void)query.SetConstraint(u, v, {RegexAtom{0, 1, 1}});
      }
    }
  }
  const Engine engine = UncachedEngine();
  const Engine cached_engine;
  auto pq = engine.Prepare(query);
  ASSERT_TRUE(pq.ok());
  auto cached_pq = cached_engine.Prepare(query);
  ASSERT_TRUE(cached_pq.ok());
  for (uint32_t radius_override : {0u, 2u}) {
    for (bool dedup : {true, false}) {
      SCOPED_TRACE("radius=" + std::to_string(radius_override) +
                   " dedup=" + std::to_string(dedup));
      MatchRequest request = Request(Algo::kRegexStrong);
      request.options.radius_override = radius_override;
      request.options.dedup = dedup;
      auto serial = engine.Match(*pq, w.g, request);
      ASSERT_TRUE(serial.ok());
      request.policy = ExecPolicy::Parallel(3);
      auto parallel = engine.Match(*pq, w.g, request);
      ASSERT_TRUE(parallel.ok());
      ExpectSameResults(serial->subgraphs, parallel->subgraphs, "parallel");
      if (dedup) {
        request.policy = ExecPolicy::Distributed({.num_sites = 3});
        auto distributed = engine.Match(*pq, w.g, request);
        ASSERT_TRUE(distributed.ok());
        ExpectSameResults(serial->subgraphs, distributed->subgraphs,
                          "distributed");
      }
      // Batched form, duplicated (the repeat hits the result cache), on
      // the caching engine: still the lone uncached answer.
      MatchRequest batch_request = Request(Algo::kRegexStrong);
      batch_request.options.radius_override = radius_override;
      batch_request.options.dedup = dedup;
      std::vector<BatchItem> items = {
          {&*cached_pq, batch_request, {}},
          {&*cached_pq, batch_request, {}},
      };
      auto responses = cached_engine.MatchBatch(w.g, items);
      for (size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
        ExpectSameResults(serial->subgraphs, (*responses[i]).subgraphs,
                          "batch item " + std::to_string(i));
      }
    }
  }
}

// Unsupported regex option combinations are named errors — lone and
// batched — never silent ignores (the other satellite-2 contract).
TEST(AuxGraphTest, RegexOptionCombosAreNamedErrors) {
  const Workload w = MakeWorkload(29);
  Rng rng(411);
  auto extracted = ExtractPattern(w.g, /*nq=*/4, &rng);
  ASSERT_TRUE(extracted.ok());
  RegexQuery query(std::move(*extracted));
  const Engine engine;
  auto pq = engine.Prepare(query);
  ASSERT_TRUE(pq.ok());

  MatchRequest minimized = Request(Algo::kRegexStrong);
  minimized.options.minimize_query = true;
  auto r1 = engine.Match(*pq, w.g, minimized);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().ToString().find("minimize_query"), std::string::npos);

  MatchRequest pruned = Request(Algo::kRegexStrong);
  pruned.options.connectivity_pruning = true;
  auto r2 = engine.Match(*pq, w.g, pruned);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("connectivity_pruning"),
            std::string::npos);

  MatchRequest raw_distributed =
      Request(Algo::kRegexStrong, ExecPolicy::Distributed({.num_sites = 2}));
  raw_distributed.options.dedup = false;
  auto r3 = engine.Match(*pq, w.g, raw_distributed);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().ToString().find("dedup"), std::string::npos);

  // The same combos inside a batch land in that item's slot only.
  std::vector<BatchItem> items = {
      {&*pq, minimized, {}},
      {&*pq, Request(Algo::kRegexStrong), {}},
  };
  auto responses = engine.MatchBatch(w.g, items);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok());
  EXPECT_TRUE(responses[1].ok());
}

// The aux memo follows the engine invalidation contract: snapshots of an
// IncrementalSession key their own entries (fresh instance_id per
// version), so matches against the post-mutation snapshot never see the
// stale pruned adjacency; TickDataVersion re-keys in-place replacements.
TEST(AuxGraphTest, SnapshotInteropAndInvalidation) {
  const Workload w = MakeWorkload(37);
  const Engine engine;  // every cache on
  const Engine baseline_engine = UncachedEngine();
  Rng rng(733);
  auto extracted = ExtractPattern(w.g, /*nq=*/4, &rng);
  ASSERT_TRUE(extracted.ok());
  auto pq = engine.Prepare(*extracted);
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(pq->strong_status().ok());

  auto session = engine.OpenIncremental(*pq, w.g);
  ASSERT_TRUE(session.ok());
  const MatchRequest request = Request(Algo::kStrongPlus);

  auto snap1 = session->Snapshot();
  auto warm1a = engine.Match(*pq, *snap1, request);
  auto warm1b = engine.Match(*pq, *snap1, request);  // warms every memo
  ASSERT_TRUE(warm1a.ok());
  ASSERT_TRUE(warm1b.ok());
  ExpectSameResults(warm1a->subgraphs, warm1b->subgraphs, "repeat snap1");

  // Mutate: densify around node 0 so the dual filter (and with it the
  // pruned adjacency) genuinely changes.
  const NodeId fresh = session->AddNode(w.g.label(0));
  ASSERT_TRUE(session->InsertEdge(0, fresh).ok());
  ASSERT_TRUE(session->InsertEdge(fresh, 0).ok());
  auto snap2 = session->Snapshot();
  ASSERT_NE(snap1->instance_id(), snap2->instance_id());
  auto got2 = engine.Match(*pq, *snap2, request);
  ASSERT_TRUE(got2.ok());
  auto baseline_q = baseline_engine.Prepare(*extracted);
  ASSERT_TRUE(baseline_q.ok());
  auto expect2 = baseline_engine.Match(*baseline_q, *snap2, request);
  ASSERT_TRUE(expect2.ok());
  ExpectSameResults(expect2->subgraphs, got2->subgraphs, "post-mutation");

  // And the session's own Θ agrees with the engine's answer on its
  // snapshot (center-sorted; the engine result is dedup'd the same way).
  auto current = session->CurrentMatches();
  ExpectSameResults(got2->subgraphs, current, "session vs engine");

  // Coarse invalidation: an in-place graph replacement is safe once the
  // data version ticks.
  Workload other = MakeWorkload(41);
  Graph replaced = w.g;  // same instance_id story as the existing suite:
  replaced = other.g;    // assignment carries other.g's instance_id
  engine.TickDataVersion();
  auto after_tick = engine.Match(*pq, replaced, request);
  auto expect_after = baseline_engine.Match(*baseline_q, replaced, request);
  ASSERT_TRUE(after_tick.ok());
  ASSERT_TRUE(expect_after.ok());
  ExpectSameResults(expect_after->subgraphs, after_tick->subgraphs,
                    "after tick");
}

}  // namespace
}  // namespace gpm
