#include "extensions/regex_strong.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/components.h"
#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"

namespace gpm {

namespace {

Status ValidateRegexPattern(const RegexQuery& query) {
  const Graph& q = query.pattern();
  if (q.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  if (!IsConnected(q))
    return Status::InvalidArgument("pattern graph must be connected");
  return Status::OK();
}

}  // namespace

MatchRelation ComputeRegexDualSimulation(const RegexQuery& query,
                                         const Graph& g) {
  return internal::RegexRelation(query, g, /*dual=*/true);
}

uint32_t DefaultRegexRadius(const RegexQuery& query, uint32_t unbounded_cap) {
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  if (nq == 0) return 0;
  auto edge_weight = [&](NodeId u, NodeId u2) -> uint64_t {
    uint64_t total = 0;
    for (const RegexAtom& atom : query.ConstraintFor(u, u2)) {
      total += atom.max_reps == kUnboundedReps
                   ? std::max(atom.min_reps, unbounded_cap)
                   : atom.max_reps;
    }
    return std::max<uint64_t>(total, 1);
  };

  // Floyd-Warshall over the undirected weighted pattern (patterns are
  // small; §2.1 assumes them connected).
  constexpr uint64_t kInf = UINT64_MAX / 4;
  std::vector<std::vector<uint64_t>> dist(nq, std::vector<uint64_t>(nq, kInf));
  for (NodeId u = 0; u < nq; ++u) dist[u][u] = 0;
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      const uint64_t w = edge_weight(u, u2);
      dist[u][u2] = std::min(dist[u][u2], w);
      dist[u2][u] = std::min(dist[u2][u], w);
    }
  }
  for (size_t k = 0; k < nq; ++k) {
    for (size_t i = 0; i < nq; ++i) {
      for (size_t j = 0; j < nq; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  uint64_t diameter = 0;
  for (size_t i = 0; i < nq; ++i) {
    for (size_t j = 0; j < nq; ++j) {
      if (dist[i][j] < kInf) diameter = std::max(diameter, dist[i][j]);
    }
  }
  return static_cast<uint32_t>(diameter);
}

Result<DualFilterResult> ComputeRegexFilter(const RegexQuery& query,
                                            const Graph& g) {
  GPM_CHECK(g.finalized());
  GPM_RETURN_NOT_OK(ValidateRegexPattern(query));
  Timer timer;
  const MatchRelation global = ComputeRegexDualSimulation(query, g);
  DualFilterResult out;
  if (!global.IsTotal()) {
    // Every ball's relation is contained in the global one, so an empty
    // global sim list empties it in every ball: Θ = ∅.
    out.proven_empty = true;
    out.seconds = timer.Seconds();
    return out;
  }
  const size_t nq = query.pattern().num_nodes();
  out.bits.assign(nq, DynamicBitset(g.num_nodes()));
  DynamicBitset any_match(g.num_nodes());
  for (size_t u = 0; u < nq; ++u) {
    for (NodeId v : global.sim[u]) {
      out.bits[u].Set(v);
      any_match.Set(v);
    }
  }
  any_match.ForEach(
      [&](size_t v) { out.centers.push_back(static_cast<NodeId>(v)); });
  // With every atom bounded, a witness walk for pattern edge (u, u') is at
  // most its constraint's weight long, so the weighted diameter bounds the
  // hops from any survivor to a candidate of every query node. An
  // unbounded atom's witness can outrun the capped weight: no bound then.
  const Graph& q = query.pattern();
  bool bounded = true;
  for (NodeId u = 0; u < q.num_nodes() && bounded; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      for (const RegexAtom& atom : query.ConstraintFor(u, u2)) {
        bounded = bounded && atom.max_reps != kUnboundedReps;
      }
    }
  }
  if (bounded) out.witness_radius = DefaultRegexRadius(query);
  out.seconds = timer.Seconds();
  return out;
}

namespace internal {

Status BuildRegexRunState(const RegexQuery& query, const Graph& g,
                          uint32_t radius, const DualFilterResult* filter,
                          RegexRunState* state, MatchStats* stats) {
  GPM_CHECK(g.finalized());
  GPM_RETURN_NOT_OK(ValidateRegexPattern(query));
  if (radius == 0) radius = DefaultRegexRadius(query);
  state->context.query = &query;
  state->context.radius = radius;
  stats->pattern_diameter = radius;

  if (filter == nullptr) {
    // The global regex filter is always on (the regex analog of §4.2's
    // dual filter): when the caller has no memoized result, compute one
    // here. Sound per the ComputeRegexFilter contract — every ball's
    // relation is contained in the global one, so pruned centers cannot
    // yield perfect subgraphs and results are unchanged.
    GPM_ASSIGN_OR_RETURN(state->filter_storage, ComputeRegexFilter(query, g));
    stats->global_filter_seconds += state->filter_storage.seconds;
    filter = &state->filter_storage;
  }

  if (filter->proven_empty) {
    stats->balls_skipped_filter = g.num_nodes();
    state->proven_empty = true;
    return Status::OK();
  }
  GPM_CHECK_EQ(filter->bits.size(), query.pattern().num_nodes());
  state->filter = filter;
  state->context.global_bits = &filter->bits;
  stats->balls_skipped_filter = g.num_nodes() - filter->centers.size();
  return Status::OK();
}

std::optional<PerfectSubgraph> ProcessRegexBall(
    const RegexMatchContext& context, const Ball& ball, MatchStats* stats,
    RegexBallScratch* scratch) {
  RegexBallScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  ScopedSecondsAccumulator stage(&stats->refine_seconds);
  const RegexQuery& query = *context.query;
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  const size_t bn = ball.graph.num_nodes();
  ++stats->balls_considered;

  // Initial candidates (local ids): the global filter projected into the
  // ball when one ran, label classes otherwise. Either start set contains
  // the ball's maximum relation, so the fixpoint lands on the same Sw.
  auto& member = scratch->member;
  if (member.size() < nq) member.resize(nq);
  for (NodeId u = 0; u < nq; ++u) {
    member[u].Reinit(bn);
    if (context.global_bits != nullptr) {
      const DynamicBitset& bits = (*context.global_bits)[u];
      for (NodeId local = 0; local < bn; ++local) {
        if (bits.Test(ball.to_global[local])) member[u].Set(local);
      }
    } else {
      for (NodeId v : ball.graph.NodesWithLabel(q.label(u))) member[u].Set(v);
    }
    stats->candidate_pairs_refined += member[u].Count();
  }

  // member[u] becomes Sw(u), the ball's maximum relation.
  RegexFixpoint(query, ball.graph, /*dual=*/true, &member, &scratch->image);
  const NodeId center = ball.LocalCenter();
  bool total = true;
  bool center_matched = false;
  for (size_t u = 0; u < nq; ++u) {
    total = total && member[u].Any();
    center_matched = center_matched || member[u].Test(center);
  }
  if (!total || !center_matched) {
    ++stats->balls_center_unmatched;
    return std::nullopt;
  }

  // Virtual match graph: (v, v') for every regex witness pair, dense
  // undirected adjacency over local ids. v's witnesses for (u, u2) are
  // Post_R({v}) ∩ member[u2].
  auto& adj = scratch->adj;
  if (adj.size() < bn) adj.resize(bn);
  for (size_t v = 0; v < bn; ++v) adj[v].clear();
  auto& virtual_edges = scratch->virtual_edges;
  virtual_edges.clear();
  DynamicBitset& targets = scratch->image.image;
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      const RegexPath& path = query.ConstraintFor(u, u2);
      member[u].ForEach([&](size_t v) {
        targets.Reinit(bn);
        targets.Set(v);
        RegexImage(ball.graph, path, RegexImageDir::kPost, &targets,
                   &scratch->image, &member[u2]);
        targets.ForEach([&](size_t t) {
          virtual_edges.emplace_back(static_cast<NodeId>(v),
                                     static_cast<NodeId>(t));
          adj[v].push_back(static_cast<NodeId>(t));
          adj[t].push_back(static_cast<NodeId>(v));
        });
      });
    }
  }

  // Component of the center over virtual edges.
  DynamicBitset& in_component = scratch->in_component;
  in_component.Reinit(bn);
  in_component.Set(center);
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(center);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId x : adj[v]) {
      if (!in_component.Test(x)) {
        in_component.Set(x);
        stack.push_back(x);
      }
    }
  }

  PerfectSubgraph pg;
  pg.center = ball.center;
  pg.radius = context.radius;
  pg.relation = MatchRelation(nq);
  for (NodeId u = 0; u < nq; ++u) {
    member[u].ForEach([&](size_t v) {
      if (in_component.Test(v)) {
        pg.relation.sim[u].push_back(ball.to_global[v]);
        pg.nodes.push_back(ball.to_global[v]);
      }
    });
    std::sort(pg.relation.sim[u].begin(), pg.relation.sim[u].end());
  }
  std::sort(pg.nodes.begin(), pg.nodes.end());
  pg.nodes.erase(std::unique(pg.nodes.begin(), pg.nodes.end()),
                 pg.nodes.end());
  for (const auto& [a, b] : virtual_edges) {
    if (in_component.Test(a) && in_component.Test(b)) {
      pg.edges.emplace_back(ball.to_global[a], ball.to_global[b]);
    }
  }
  std::sort(pg.edges.begin(), pg.edges.end());
  pg.edges.erase(std::unique(pg.edges.begin(), pg.edges.end()),
                 pg.edges.end());
  return pg;
}

}  // namespace internal

AuxGraphResult BuildRegexAuxGraph(const RegexQuery& query, const CsrGraph& csr,
                                  const DualFilterResult& filter,
                                  uint32_t radius) {
  // The kept-edge rule: the union of constraint-atom labels across every
  // pattern edge — ConstraintFor supplies the one-wildcard-hop default for
  // unconstrained edges, so those (and any explicit wildcard atom) force
  // the keep-everything rule.
  AuxEdgeRule rule;
  rule.by_label = true;
  const Graph& q = query.pattern();
  for (NodeId u = 0; u < q.num_nodes() && !rule.any_label; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      for (const RegexAtom& atom : query.ConstraintFor(u, u2)) {
        if (atom.label == kAnyEdgeLabel) {
          rule.any_label = true;
          break;
        }
        rule.labels.push_back(atom.label);
      }
      if (rule.any_label) break;
    }
  }
  if (rule.any_label) {
    rule.labels.clear();
  } else {
    std::sort(rule.labels.begin(), rule.labels.end());
    rule.labels.erase(std::unique(rule.labels.begin(), rule.labels.end()),
                      rule.labels.end());
  }
  return BuildAuxGraph(csr, filter, radius, rule);
}

namespace internal {

void AttachRegexProgram(const CsrGraph& csr, const AuxGraphResult* aux,
                        RegexRunState* state, BallProgram* program) {
  const RegexMatchContext* context = &state->context;
  if (aux == nullptr) {
    state->aux_storage = BuildRegexAuxGraph(*context->query, csr,
                                            *state->filter, context->radius);
    program->stats.global_filter_seconds += state->aux_storage.seconds;
    aux = &state->aux_storage;
  }
  GPM_CHECK_EQ(aux->radius, context->radius);
  state->aux = aux;
  program->stats.balls_skipped_index = aux->centers_skipped_index;
  program->step = [context](const Ball& ball, MatchStats* stats,
                            BallScratch* scratch) {
    auto* regex_scratch = std::any_cast<RegexBallScratch>(&scratch->extension);
    if (regex_scratch == nullptr) {
      regex_scratch = &scratch->extension.emplace<RegexBallScratch>();
    }
    return ProcessRegexBall(*context, ball, stats, regex_scratch);
  };
  program->centers = &aux->centers;
}

}  // namespace internal

namespace {

// MatchStrongRegex and MatchStrongRegexParallel: one regex program, run
// alone.
Result<std::vector<PerfectSubgraph>> RunRegexAlone(
    const RegexQuery& query, const Graph& g, uint32_t radius, size_t threads,
    MatchStats* stats, const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux, bool dedup) {
  Timer timer;
  internal::RegexRunState state;
  internal::BallProgram program;
  program.dedup = dedup;
  GPM_RETURN_NOT_OK(internal::BuildRegexRunState(query, g, radius, filter,
                                                 &state, &program.stats));
  CsrGraph local_csr;
  if (!state.proven_empty) {
    if (csr == nullptr) {
      local_csr = CsrGraph::FromGraph(g);
      csr = &local_csr;
    }
    internal::AttachRegexProgram(*csr, aux, &state, &program);
  }
  return internal::RunAlone(csr, state.aux, state.context.radius, &program,
                            threads, timer, stats);
}

}  // namespace

Result<std::vector<PerfectSubgraph>> MatchStrongRegex(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    MatchStats* stats, const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux, bool dedup) {
  return RunRegexAlone(query, g, radius, /*threads=*/1, stats, filter, csr,
                       aux, dedup);
}

Result<std::vector<PerfectSubgraph>> MatchStrongRegexParallel(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    size_t num_threads, MatchStats* stats, const DualFilterResult* filter,
    const CsrGraph* csr, const AuxGraphResult* aux, bool dedup) {
  return RunRegexAlone(query, g, radius, internal::ResolveThreads(num_threads),
                       stats, filter, csr, aux, dedup);
}

}  // namespace gpm
