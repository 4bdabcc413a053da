// Differential test of the regex relations and regex strong simulation
// against a definition-level oracle. The oracle checks one (pattern node,
// data node) pair at a time: a witness is searched by an explicit
// breadth-first walk over (node, hops) states per atom, parent witnesses
// walk forward from every candidate parent, and balls come from the plain
// BallBuilder on the full data graph. The library evaluates the same
// relations set-at-a-time (Pre/Post set images), over the pruned auxiliary
// adjacency, after the global regex filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "extensions/regex_strong.h"
#include "matching/ball.h"
#include "tests/test_util.h"

namespace gpm {
namespace {

using testutil::MakeGraph;

constexpr EdgeLabel kAny = kAnyEdgeLabel;
constexpr uint32_t kInf = kUnboundedReps;

// The nodes some walk from `from` spelling a word of L(path) ends at.
std::set<NodeId> OracleReach(const Graph& g, NodeId from,
                             const RegexPath& path) {
  std::set<NodeId> current = {from};
  for (const RegexAtom& atom : path) {
    // Hop counts above min_reps are all accepted alike for an unbounded
    // atom, so its counter stops there; a bounded atom counts to max_reps.
    const bool unbounded = atom.max_reps == kUnboundedReps;
    const uint32_t top = unbounded ? atom.min_reps : atom.max_reps;
    const size_t width = static_cast<size_t>(top) + 1;
    std::vector<char> seen(g.num_nodes() * width, 0);
    std::deque<std::pair<NodeId, uint32_t>> queue;
    for (NodeId v : current) {
      seen[v * width] = 1;
      queue.emplace_back(v, 0);
    }
    std::set<NodeId> next;
    while (!queue.empty()) {
      const auto [v, hops] = queue.front();
      queue.pop_front();
      if (hops >= atom.min_reps) next.insert(v);
      if (!unbounded && hops == top) continue;
      const uint32_t after = std::min(hops + 1, top);
      auto nbrs = g.OutNeighbors(v);
      auto labels = g.OutEdgeLabels(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (atom.label != kAnyEdgeLabel && labels[i] != atom.label) continue;
        char& mark = seen[nbrs[i] * width + after];
        if (mark) continue;
        mark = 1;
        queue.emplace_back(nbrs[i], after);
      }
    }
    current = std::move(next);
  }
  return current;
}

// Pair-at-a-time greatest fixpoint from the label classes; the parent
// condition (when `dual`) walks forward from each parent candidate.
MatchRelation OracleRelation(const RegexQuery& query, const Graph& g,
                             bool dual) {
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  std::map<std::tuple<NodeId, NodeId, NodeId>, std::set<NodeId>> memo;
  auto reach = [&](NodeId from, NodeId a, NodeId b) -> const std::set<NodeId>& {
    auto [it, inserted] = memo.try_emplace({from, a, b});
    if (inserted) it->second = OracleReach(g, from, query.ConstraintFor(a, b));
    return it->second;
  };
  std::vector<std::set<NodeId>> sim(nq);
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.label(v) == q.label(u)) sim[u].insert(v);
    }
  }
  auto holds = [&](NodeId u, NodeId v) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      const auto& targets = reach(v, u, u2);
      if (std::none_of(targets.begin(), targets.end(),
                       [&](NodeId w) { return sim[u2].count(w) > 0; })) {
        return false;
      }
    }
    if (!dual) return true;
    for (NodeId u1 : q.InNeighbors(u)) {
      if (std::none_of(sim[u1].begin(), sim[u1].end(), [&](NodeId w) {
            return reach(w, u1, u).count(v) > 0;
          })) {
        return false;
      }
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < nq; ++u) {
      for (NodeId v : std::vector<NodeId>(sim[u].begin(), sim[u].end())) {
        if (!holds(u, v)) {
          sim[u].erase(v);
          changed = true;
        }
      }
    }
  }
  MatchRelation rel(nq);
  for (NodeId u = 0; u < nq; ++u) rel.sim[u].assign(sim[u].begin(), sim[u].end());
  return rel;
}

// Strong simulation by definition: every data node's full-graph ball at
// the default regex radius, the oracle dual relation inside it, the
// virtual match graph over witness pairs, and the center's component.
std::vector<PerfectSubgraph> OracleStrong(const RegexQuery& query,
                                          const Graph& g) {
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  const uint32_t radius = DefaultRegexRadius(query);
  BallBuilder builder(g);
  Ball ball;
  std::vector<PerfectSubgraph> out;
  for (NodeId c = 0; c < g.num_nodes(); ++c) {
    builder.Build(c, radius, &ball);
    const MatchRelation rel = OracleRelation(query, ball.graph, true);
    if (!rel.IsTotal()) continue;
    const NodeId center = ball.LocalCenter();
    bool center_matched = false;
    for (NodeId u = 0; u < nq; ++u) {
      center_matched = center_matched || rel.Contains(u, center);
    }
    if (!center_matched) continue;
    std::set<std::pair<NodeId, NodeId>> virtual_edges;
    for (NodeId u = 0; u < nq; ++u) {
      for (NodeId u2 : q.OutNeighbors(u)) {
        for (NodeId v : rel.sim[u]) {
          for (NodeId t : OracleReach(ball.graph, v, query.ConstraintFor(u, u2))) {
            if (rel.Contains(u2, t)) virtual_edges.emplace(v, t);
          }
        }
      }
    }
    std::set<NodeId> component = {center};
    for (bool grew = true; grew;) {
      grew = false;
      for (const auto& [a, b] : virtual_edges) {
        if (component.count(a) != component.count(b)) {
          component.insert(a);
          component.insert(b);
          grew = true;
        }
      }
    }
    PerfectSubgraph pg;
    pg.center = c;
    pg.radius = radius;
    pg.relation = MatchRelation(nq);
    std::set<NodeId> nodes;
    for (NodeId u = 0; u < nq; ++u) {
      for (NodeId v : rel.sim[u]) {
        if (component.count(v) == 0) continue;
        pg.relation.sim[u].push_back(ball.to_global[v]);
        nodes.insert(ball.to_global[v]);
      }
      std::sort(pg.relation.sim[u].begin(), pg.relation.sim[u].end());
    }
    pg.nodes.assign(nodes.begin(), nodes.end());
    std::set<std::pair<NodeId, NodeId>> edges;
    for (const auto& [a, b] : virtual_edges) {
      if (component.count(a) && component.count(b)) {
        edges.emplace(ball.to_global[a], ball.to_global[b]);
      }
    }
    pg.edges.assign(edges.begin(), edges.end());
    out.push_back(std::move(pg));
  }
  CanonicalizeSubgraphs(/*dedup=*/true, &out);
  return out;
}

// A seeded random graph with 3 node labels and 3 edge labels (self-loops
// allowed).
Graph RandomEdgeLabeledGraph(uint64_t seed, uint32_t n, uint32_t m) {
  Rng rng(seed);
  Graph g;
  for (uint32_t v = 0; v < n; ++v) g.AddNode(static_cast<Label>(rng.Uniform(3)));
  for (uint32_t e = 0; e < m; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
              static_cast<NodeId>(rng.Uniform(n)),
              static_cast<EdgeLabel>(rng.Uniform(3)));
  }
  g.Finalize();
  return g;
}

// Compares every regex entry point with the oracle on (query, g); returns
// how many perfect subgraphs the oracle found.
size_t ExpectMatchesOracle(const RegexQuery& query, const Graph& g) {
  EXPECT_EQ(ComputeRegexSimulation(query, g).sim,
            OracleRelation(query, g, /*dual=*/false).sim);
  EXPECT_EQ(ComputeRegexDualSimulation(query, g).sim,
            OracleRelation(query, g, /*dual=*/true).sim);
  auto got = MatchStrongRegex(query, g);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  const auto want = OracleStrong(query, g);
  if (!got.ok() || got->size() != want.size()) {
    ADD_FAILURE() << "subgraph count " << (got.ok() ? got->size() : 0)
                  << ", oracle " << want.size();
    return want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("subgraph " + std::to_string(i));
    EXPECT_EQ((*got)[i].center, want[i].center);
    EXPECT_EQ((*got)[i].radius, want[i].radius);
    EXPECT_EQ((*got)[i].nodes, want[i].nodes);
    EXPECT_EQ((*got)[i].edges, want[i].edges);
    EXPECT_EQ((*got)[i].relation.sim, want[i].relation.sim);
  }
  auto parallel = MatchStrongRegexParallel(query, g, 0, /*num_threads=*/3);
  EXPECT_TRUE(parallel.ok() && parallel->size() == got->size());
  for (size_t i = 0; parallel.ok() && i < parallel->size(); ++i) {
    EXPECT_EQ((*parallel)[i].center, (*got)[i].center);
    EXPECT_TRUE((*parallel)[i].SameSubgraph((*got)[i]));
  }
  return want.size();
}

// A pattern over `labels` and `edges`, every edge carrying `path`.
RegexQuery Constrained(std::initializer_list<Label> labels,
                       std::initializer_list<std::pair<NodeId, NodeId>> edges,
                       const RegexPath& path) {
  RegexQuery query(MakeGraph(labels, edges));
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(query.SetConstraint(a, b, path).ok());
  }
  return query;
}

const RegexPath kAtomCases[] = {
    {RegexAtom{kAny, 0, 2}},                         // _{0..2}
    {RegexAtom{kAny, 1, kInf}},                      // _{1..∞}
    {RegexAtom{1, 1, 3}},                            // l{1..3}
    {RegexAtom{0, 1, 1}, RegexAtom{2, 0, 2}},        // two atoms
    {RegexAtom{2, 2, kInf}, RegexAtom{kAny, 1, 1}},  // two atoms, unbounded
    {RegexAtom{kAny, 0, 0}},                         // {0..0}: no hop
};

TEST(RegexOracleTest, AtomsOnChainsSelfLoopsAndTwoCycles) {
  // Perfect subgraphs found per atom case, so no case passes vacuously.
  std::vector<size_t> found(std::size(kAtomCases), 0);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = RandomEdgeLabeledGraph(seed, 24, 72);
    for (size_t a = 0; a < std::size(kAtomCases); ++a) {
      const RegexPath& path = kAtomCases[a];
      SCOPED_TRACE("seed " + std::to_string(seed) + " atom case " +
                   std::to_string(a));
      {
        SCOPED_TRACE("chain");
        found[a] += ExpectMatchesOracle(Constrained({0, 1, 2}, {{0, 1}, {1, 2}}, path), g);
      }
      {
        SCOPED_TRACE("self-loop");
        found[a] += ExpectMatchesOracle(Constrained({1, 2}, {{0, 0}, {0, 1}}, path), g);
      }
      {
        SCOPED_TRACE("2-cycle");
        found[a] += ExpectMatchesOracle(Constrained({0, 0}, {{0, 1}, {1, 0}}, path), g);
      }
    }
  }
  for (size_t a = 0; a < found.size(); ++a) {
    EXPECT_GT(found[a], 0u) << "atom case " << a;
  }
}

TEST(RegexOracleTest, RepetitionAtTheCap) {
  // l{4096..4096} on a graph whose label-1 cycles have lengths 4 and 5
  // (4096 = 4 * 1024 is reachable around the first, not the second), with
  // the strong path's radius stretched to 4096.
  Graph g;
  for (int v = 0; v < 12; ++v) g.AddNode(static_cast<Label>(v % 2));
  for (NodeId v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4, 1);
  for (NodeId v = 4; v < 9; ++v) g.AddEdge(v, v == 8 ? 4 : v + 1, 1);
  g.AddEdge(3, 9, 0);
  g.AddEdge(9, 10, 1);
  g.AddEdge(10, 11, 2);
  g.Finalize();
  EXPECT_GT(ExpectMatchesOracle(
                Constrained({0, 0}, {{0, 1}}, {RegexAtom{1, 4096, 4096}}), g),
            0u);
  EXPECT_GT(ExpectMatchesOracle(Constrained({0, 0}, {{0, 1}, {1, 0}},
                                            {RegexAtom{1, 4096, 4096}}),
                                g),
            0u);
  EXPECT_GT(ExpectMatchesOracle(
                Constrained({0, 0}, {{0, 0}, {0, 1}}, {RegexAtom{1, 4096, 4096}}), g),
            0u);
}

TEST(RegexOracleTest, RandomConstraintsOnRandomPatterns) {
  Rng rng(20111);
  size_t nonempty = 0;
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Graph g = RandomEdgeLabeledGraph(1000 + trial, 22, 60);
    const uint32_t nq = 2 + static_cast<uint32_t>(rng.Uniform(2));
    Graph q;
    for (uint32_t u = 0; u < nq; ++u) q.AddNode(static_cast<Label>(rng.Uniform(3)));
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 1; u < nq; ++u) {
      edges.emplace_back(static_cast<NodeId>(rng.Uniform(u)), u);
    }
    if (rng.Bernoulli(0.4)) edges.emplace_back(edges[0].second, edges[0].first);
    if (rng.Bernoulli(0.3)) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(nq));
      edges.emplace_back(u, u);
    }
    for (const auto& [a, b] : edges) q.AddEdge(a, b);
    q.Finalize();
    RegexQuery query(std::move(q));
    for (const auto& [a, b] : edges) {
      RegexPath path;
      for (size_t i = 0, k = 1 + rng.Uniform(2); i < k; ++i) {
        RegexAtom atom;
        atom.label = rng.Bernoulli(0.3) ? kAny
                                        : static_cast<EdgeLabel>(rng.Uniform(3));
        atom.min_reps = static_cast<uint32_t>(rng.Uniform(3));
        atom.max_reps = rng.Bernoulli(0.2)
                            ? kInf
                            : atom.min_reps + static_cast<uint32_t>(rng.Uniform(3));
        path.push_back(atom);
      }
      ASSERT_TRUE(query.SetConstraint(a, b, std::move(path)).ok());
    }
    nonempty += ExpectMatchesOracle(query, g) > 0;
  }
  EXPECT_GT(nonempty, 50u);
}

}  // namespace
}  // namespace gpm
