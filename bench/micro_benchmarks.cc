// google-benchmark microbenches of the core primitives every paper
// experiment is built from: ball construction (pointer-chasing, CSR, and
// the pruned aux graph's multi-source sweep), the aux-graph build, the
// dual-simulation refinement, the regex ball step and regex filter,
// match-graph building, query minimization, serialization.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "extensions/regex_strong.h"
#include "graph/csr_graph.h"
#include "graph/diameter.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/dual_simulation.h"
#include "matching/match_relation.h"
#include "matching/query_minimization.h"
#include "matching/simulation.h"
#include "matching/strong_simulation.h"
#include "quality/workloads.h"

namespace gpm {
namespace {

const Graph& SharedData(int64_t n) {
  static std::unordered_map<int64_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, MakeAmazonLike(static_cast<uint32_t>(n), 51)).first;
  }
  return it->second;
}

Graph SharedPattern(const Graph& g, uint32_t nq) {
  Rng rng(52);
  auto q = ExtractPattern(g, nq, &rng);
  GPM_CHECK(q.ok());
  return std::move(*q);
}

void BM_BallConstruction(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  BallBuilder builder(g);
  Ball ball;
  NodeId center = 0;
  for (auto _ : state) {
    builder.Build(center, 3, &ball);
    center = (center + 97) % g.num_nodes();
    benchmark::DoNotOptimize(ball.graph.num_nodes());
  }
}
BENCHMARK(BM_BallConstruction)->Arg(10000)->Arg(50000);

// The cold serving path's shape: a 7000-node, 30-label Amazon-like graph
// and eight 6-node extracted patterns of diameter at most 3, each with its
// dual filter and its pruned aux graph at the diameter.
struct AuxQuery {
  uint32_t diameter = 0;
  DualFilterResult filter;
  AuxGraphResult aux;
};

struct AuxInputs {
  CsrGraph csr;
  std::vector<AuxQuery> queries;
  size_t balls = 0;  // Σ aux centers
};

const AuxInputs& SharedAux() {
  static const AuxInputs inputs = [] {
    const Graph g = MakeAmazonLike(7000, 20111, /*num_labels=*/30);
    AuxInputs in;
    in.csr = CsrGraph::FromGraph(g);
    Rng rng(53);
    while (in.queries.size() < 8) {
      auto q = ExtractPattern(g, 6, &rng);
      if (!q.ok()) continue;
      AuxQuery query;
      query.diameter = *Diameter(*q);
      if (query.diameter > 3) continue;
      query.filter = *ComputeDualFilter(*q, g, /*minimize_query=*/false);
      if (query.filter.proven_empty) continue;
      query.aux = BuildAuxGraph(in.csr, query.filter, query.diameter);
      in.balls += query.aux.centers.size();
      in.queries.push_back(std::move(query));
    }
    return in;
  }();
  return inputs;
}

// Arg 0 builds at each pattern's diameter (at or above the witness
// radius, so the landmark pass is skipped); arg 1 at radius 1, where the
// pass runs. Per iteration: all eight patterns.
void BM_BuildAuxGraph(benchmark::State& state) {
  const AuxInputs& in = SharedAux();
  size_t centers = 0, skipped = 0;
  for (auto _ : state) {
    centers = skipped = 0;
    for (const AuxQuery& q : in.queries) {
      const uint32_t radius = state.range(0) == 0
                                  ? q.diameter
                                  : static_cast<uint32_t>(state.range(0));
      const AuxGraphResult aux = BuildAuxGraph(in.csr, q.filter, radius);
      centers += q.filter.centers.size();
      skipped += aux.centers_skipped_index;
      benchmark::DoNotOptimize(aux.centers.data());
    }
  }
  state.counters["centers"] = static_cast<double>(centers);
  state.counters["skipped"] = static_cast<double>(skipped);
}
BENCHMARK(BM_BuildAuxGraph)->Arg(0)->Arg(1);

// A counter that reads as nanoseconds per ball: the invert of a per-
// iteration rate of balls * 1e-9.
benchmark::Counter NsPerBall(size_t balls) {
  return benchmark::Counter(
      static_cast<double>(balls) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Every ball of each pattern's centers, as one ball-loop worker builds
// them (a fresh builder per run): the aux builder's 64-lane sweep...
void BM_AuxBallBuilder(benchmark::State& state) {
  const AuxInputs& in = SharedAux();
  size_t scratch = 0;
  Ball ball;
  for (auto _ : state) {
    for (const AuxQuery& q : in.queries) {
      AuxBallBuilder builder(in.csr, q.aux);
      for (NodeId center : q.aux.centers) {
        builder.Build(center, q.diameter, &ball);
        benchmark::DoNotOptimize(ball.graph.num_nodes());
      }
      scratch = builder.ScratchBytes();
    }
  }
  state.counters["ns_per_ball"] = NsPerBall(in.balls);
  state.counters["scratch_bytes_per_node"] =
      static_cast<double>(scratch) / static_cast<double>(in.csr.num_nodes());
}
BENCHMARK(BM_AuxBallBuilder);

// ...against a per-center BFS over the same centers (full balls, no
// pruned induction).
void BM_CsrBallBuilder(benchmark::State& state) {
  const AuxInputs& in = SharedAux();
  Ball ball;
  for (auto _ : state) {
    for (const AuxQuery& q : in.queries) {
      CsrBallBuilder builder(in.csr);
      for (NodeId center : q.aux.centers) {
        builder.Build(center, q.diameter, &ball);
        benchmark::DoNotOptimize(ball.graph.num_nodes());
      }
    }
  }
  state.counters["ns_per_ball"] = NsPerBall(in.balls);
}
BENCHMARK(BM_CsrBallBuilder);

// The regex_par workload's shape: an 800-node Amazon-like graph and eight
// 4-node extracted patterns of diameter at most 3 whose first edge is the
// wildcard path _{1..2}, each with its regex filter and every ball its
// run visits (aux-graph balls at the default regex radius).
struct RegexInputs {
  Graph g;
  std::vector<RegexQuery> queries;
  std::vector<DualFilterResult> filters;
  std::vector<std::vector<Ball>> balls;  // per query
  size_t num_balls = 0;
  size_t max_ball_nodes = 0;
};

const RegexInputs& SharedRegex() {
  static const RegexInputs inputs = [] {
    RegexInputs in;
    in.g = MakeDataset(DatasetKind::kAmazonLike, 800, 40111, 1.2,
                       ScaledLabelCount(800));
    const CsrGraph csr = CsrGraph::FromGraph(in.g);
    Rng rng(54);
    while (in.queries.size() < 8) {
      auto q = ExtractPattern(in.g, 4, &rng);
      if (!q.ok() || *Diameter(*q) > 3) continue;
      RegexQuery query(std::move(*q));
      const Graph& p = query.pattern();
      for (NodeId u = 0; u < p.num_nodes() && p.OutDegree(u) > 0; ++u) {
        GPM_CHECK_OK(query.SetConstraint(u, p.OutNeighbors(u)[0],
                                         {RegexAtom{kAnyEdgeLabel, 1, 2}}));
        break;
      }
      auto filter = ComputeRegexFilter(query, in.g);
      if (!filter.ok() || filter->proven_empty) continue;
      const uint32_t radius = DefaultRegexRadius(query);
      const AuxGraphResult aux =
          BuildRegexAuxGraph(query, csr, *filter, radius);
      AuxBallBuilder builder(csr, aux);
      std::vector<Ball> balls(aux.centers.size());
      for (size_t i = 0; i < balls.size(); ++i) {
        builder.Build(aux.centers[i], radius, &balls[i]);
        in.max_ball_nodes =
            std::max(in.max_ball_nodes, balls[i].graph.num_nodes());
      }
      in.num_balls += balls.size();
      in.queries.push_back(std::move(query));
      in.filters.push_back(std::move(*filter));
      in.balls.push_back(std::move(balls));
    }
    return in;
  }();
  return inputs;
}

// Bytes a RegexBallScratch holds once its largest ball had
// `max_ball_nodes` nodes: vector capacities, plus each bitset's words at
// that universe (a bitset's buffer grows to the largest universe it held).
size_t RegexScratchBytes(const internal::RegexBallScratch& s,
                         size_t max_ball_nodes) {
  const size_t bitset = (max_ball_nodes + 63) / 64 * sizeof(uint64_t);
  size_t bytes = s.member.capacity() * sizeof(DynamicBitset) +
                 s.member.size() * bitset;
  // image.{frontier, next, reached, image} and in_component.
  bytes += 5 * bitset;
  bytes += (s.image.version.capacity() + s.image.seen.capacity()) *
           sizeof(uint64_t);
  bytes += s.adj.capacity() * sizeof(std::vector<NodeId>);
  for (const auto& row : s.adj) bytes += row.capacity() * sizeof(NodeId);
  bytes += s.virtual_edges.capacity() * sizeof(std::pair<NodeId, NodeId>);
  bytes += s.stack.capacity() * sizeof(NodeId);
  return bytes;
}

// The per-ball regex step (fixpoint, witness edges, center component) over
// every prebuilt ball of the eight patterns, as one worker runs it with
// one reused scratch.
void BM_RegexBallStep(benchmark::State& state) {
  const RegexInputs& in = SharedRegex();
  internal::RegexBallScratch scratch;
  MatchStats stats;
  size_t subgraphs = 0;
  for (auto _ : state) {
    subgraphs = 0;
    for (size_t i = 0; i < in.queries.size(); ++i) {
      internal::RegexMatchContext context;
      context.query = &in.queries[i];
      context.radius = DefaultRegexRadius(in.queries[i]);
      context.global_bits = &in.filters[i].bits;
      for (const Ball& ball : in.balls[i]) {
        subgraphs +=
            internal::ProcessRegexBall(context, ball, &stats, &scratch)
                .has_value();
      }
    }
  }
  state.counters["ns_per_ball"] = NsPerBall(in.num_balls);
  state.counters["subgraphs"] = static_cast<double>(subgraphs);
  state.counters["scratch_sizeof"] =
      static_cast<double>(sizeof(internal::RegexBallScratch));
  state.counters["scratch_high_water_bytes"] =
      static_cast<double>(RegexScratchBytes(scratch, in.max_ball_nodes));
}
BENCHMARK(BM_RegexBallStep);

// The global regex filter (dual regex simulation over the whole graph)
// for the same eight patterns.
void BM_RegexFilter(benchmark::State& state) {
  const RegexInputs& in = SharedRegex();
  for (auto _ : state) {
    for (const RegexQuery& query : in.queries) {
      auto filter = ComputeRegexFilter(query, in.g);
      benchmark::DoNotOptimize(filter->centers.size());
    }
  }
  state.counters["us_per_pattern"] = benchmark::Counter(
      static_cast<double>(in.queries.size()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_RegexFilter);

void BM_DualSimulationGlobal(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  const Graph q = SharedPattern(g, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDualSimulation(q, g).NumPairs());
  }
}
BENCHMARK(BM_DualSimulationGlobal)->Arg(10000)->Arg(50000);

void BM_SimulationGlobal(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  const Graph q = SharedPattern(g, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSimulation(q, g).NumPairs());
  }
}
BENCHMARK(BM_SimulationGlobal)->Arg(10000)->Arg(50000);

void BM_MatchGraphBuild(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  const Graph q = SharedPattern(g, 8);
  const MatchRelation s = ComputeDualSimulation(q, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMatchGraph(q, g, s).edges.size());
  }
}
BENCHMARK(BM_MatchGraphBuild)->Arg(10000)->Arg(50000);

void BM_QueryMinimization(benchmark::State& state) {
  // A pattern with collapsible twin branches, scaled by the arg.
  Graph q;
  const int branches = static_cast<int>(state.range(0));
  NodeId root = q.AddNode(0);
  for (int i = 0; i < branches; ++i) {
    NodeId b = q.AddNode(1);
    NodeId c = q.AddNode(2);
    q.AddEdge(root, b);
    q.AddEdge(b, c);
  }
  q.Finalize();
  for (auto _ : state) {
    auto mq = MinimizeQuery(q);
    benchmark::DoNotOptimize(mq->minimized.num_nodes());
  }
}
BENCHMARK(BM_QueryMinimization)->Arg(4)->Arg(16)->Arg(64);

void BM_MatchStrongPlusEndToEnd(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  const Graph q = SharedPattern(g, 6);
  for (auto _ : state) {
    auto result = MatchStrongPlus(q, g);
    benchmark::DoNotOptimize(result->size());
  }
}
BENCHMARK(BM_MatchStrongPlusEndToEnd)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GraphSerialization(benchmark::State& state) {
  const Graph& g = SharedData(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeGraph(g).size());
  }
}
BENCHMARK(BM_GraphSerialization)->Arg(10000)->Arg(50000);

void BM_PatternDiameter(benchmark::State& state) {
  const Graph& g = SharedData(10000);
  const Graph q = SharedPattern(g, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(*Diameter(q));
  }
}
BENCHMARK(BM_PatternDiameter)->Arg(8)->Arg(16);

}  // namespace
}  // namespace gpm

BENCHMARK_MAIN();
