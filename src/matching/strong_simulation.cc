#include "matching/strong_simulation.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/components.h"
#include "graph/csr_graph.h"
#include "graph/diameter.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/ball_loop.h"
#include "matching/dual_simulation.h"
#include "matching/parallel_match.h"
#include "matching/query_minimization.h"
#include "matching/sim_refiner.h"
#include "matching/strong_simulation_internal.h"

namespace gpm {

uint64_t PerfectSubgraph::ContentHash() const {
  // FNV-1a over the node list and edge list.
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(nodes.size());
  for (NodeId v : nodes) mix(v);
  mix(edges.size());
  for (const auto& [a, b] : edges) mix((static_cast<uint64_t>(a) << 32) | b);
  return h;
}

Graph PerfectSubgraph::AsGraph(const Graph& g) const {
  Graph out;
  std::unordered_map<NodeId, NodeId> local;
  local.reserve(nodes.size());
  for (NodeId v : nodes) local.emplace(v, out.AddNode(g.label(v)));
  for (const auto& [a, b] : edges) out.AddEdge(local.at(a), local.at(b));
  out.Finalize();
  return out;
}

namespace {

// Restricts per-query-node candidate lists (local ball ids) to the
// undirected connected component — within the candidate-induced subgraph
// of the ball — that contains the center (§4.2 connectivity pruning,
// justified by Theorem 2). Returns false if the center is not a candidate
// at all (the ball cannot yield a perfect subgraph).
bool PruneToCenterComponent(const Ball& ball,
                            std::vector<std::vector<NodeId>>* cand,
                            internal::MatchScratch* scratch) {
  const size_t bn = ball.graph.num_nodes();
  DynamicBitset& is_candidate = scratch->is_candidate;
  is_candidate.Reinit(bn);
  for (const auto& list : *cand) {
    for (NodeId v : list) is_candidate.Set(v);
  }
  const NodeId center = ball.LocalCenter();
  if (!is_candidate.Test(center)) return false;

  // BFS over candidate nodes only (edges of the candidate-induced
  // subgraph), undirected.
  DynamicBitset& in_component = scratch->in_component;
  in_component.Reinit(bn);
  in_component.Set(center);
  std::vector<NodeId>& stack = scratch->stack;
  stack.clear();
  stack.push_back(center);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    auto visit = [&](NodeId w) {
      if (is_candidate.Test(w) && !in_component.Test(w)) {
        in_component.Set(w);
        stack.push_back(w);
      }
    };
    for (NodeId w : ball.graph.OutNeighbors(v)) visit(w);
    for (NodeId w : ball.graph.InNeighbors(v)) visit(w);
  }

  for (auto& list : *cand) {
    std::erase_if(list, [&](NodeId v) { return !in_component.Test(v); });
  }
  return true;
}

// ExtractMaxPG (Fig. 3): the connected component containing the center of
// the match graph w.r.t. Sw. Returns false if the center is unmatched.
// Outputs land in scratch->pg_nodes / pg_edges / in_component (all local
// ball ids); everything transient comes from scratch->arena, so repeated
// balls run allocation-free. The match graph is built inline on flat
// bit-matrices instead of the std::unordered_map path of BuildMatchGraph:
// same definition (§2.2), ball-local id space.
bool ExtractMaxPG(const Graph& qeff, const Ball& ball, const MatchRelation& sw,
                  internal::MatchScratch* scratch) {
  const size_t bn = ball.graph.num_nodes();
  const size_t nq = qeff.num_nodes();
  const NodeId center = ball.LocalCenter();

  ScratchArena& arena = scratch->arena;
  arena.Reset();

  // match_bits row v: which query nodes ball node v matches.
  const size_t nw = (nq + 63) / 64;
  auto match_bits = arena.AllocSpan<uint64_t>(bn * nw);
  for (size_t u = 0; u < nq; ++u) {
    for (NodeId v : sw.sim[u]) {
      match_bits[v * nw + (u >> 6)] |= uint64_t{1} << (u & 63);
    }
  }
  auto matched = [&](NodeId v) {
    for (size_t i = 0; i < nw; ++i) {
      if (match_bits[v * nw + i]) return true;
    }
    return false;
  };
  if (!matched(center)) return false;

  // child_bits row u: query children of u. (v, w) is a match-graph edge
  // iff (v, w) is a ball edge and reach(v) ∩ match_bits(w) ≠ ∅, where
  // reach(v) = ∪_{u ∈ match_bits(v)} child_bits(u).
  auto child_bits = arena.AllocSpan<uint64_t>(nq * nw);
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId u2 : qeff.OutNeighbors(u)) {
      child_bits[static_cast<size_t>(u) * nw + (u2 >> 6)] |=
          uint64_t{1} << (u2 & 63);
    }
  }
  auto reach = arena.AllocSpan<uint64_t>(nw);
  auto degree = arena.AllocSpan<uint32_t>(bn);  // undirected mg degree

  // Pass 1: collect the directed match-graph edges (lexicographically
  // sorted by construction: v ascending, sorted adjacency) and count
  // undirected degrees for the flat component adjacency.
  auto& mg_edges = scratch->pg_edges;  // filtered to the component below
  mg_edges.clear();
  for (NodeId v = 0; v < bn; ++v) {
    bool has_match = false;
    for (size_t i = 0; i < nw; ++i) reach[i] = 0;
    for (size_t i = 0; i < nw; ++i) {
      uint64_t bits = match_bits[v * nw + i];
      if (bits) has_match = true;
      while (bits) {
        const size_t u = i * 64 + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (size_t j = 0; j < nw; ++j) reach[j] |= child_bits[u * nw + j];
      }
    }
    if (!has_match) continue;
    for (NodeId w : ball.graph.OutNeighbors(v)) {
      bool hit = false;
      for (size_t j = 0; j < nw && !hit; ++j) {
        hit = (reach[j] & match_bits[w * nw + j]) != 0;
      }
      if (hit) {
        mg_edges.emplace_back(v, w);
        ++degree[v];
        ++degree[w];
      }
    }
  }

  // Undirected component of `center` over a flat CSR of the match graph.
  auto offsets = arena.AllocSpan<uint32_t>(bn + 1);
  for (NodeId v = 0; v < bn; ++v) offsets[v + 1] = offsets[v] + degree[v];
  auto cursor = arena.AllocSpan<uint32_t>(bn);
  for (NodeId v = 0; v < bn; ++v) cursor[v] = offsets[v];
  auto targets = arena.AllocSpan<NodeId>(mg_edges.size() * 2);
  for (const auto& [a, b] : mg_edges) {
    targets[cursor[a]++] = b;
    targets[cursor[b]++] = a;
  }

  DynamicBitset& in_component = scratch->in_component;
  in_component.Reinit(bn);
  in_component.Set(center);
  std::vector<NodeId>& stack = scratch->stack;
  stack.clear();
  stack.push_back(center);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId w = targets[i];
      if (!in_component.Test(w)) {
        in_component.Set(w);
        stack.push_back(w);
      }
    }
  }

  // Every component member is a match-graph node (the DFS only follows
  // match-graph edges from the matched center), so the component bits ARE
  // the output node set.
  auto& nodes_out = scratch->pg_nodes;
  nodes_out.clear();
  in_component.ForEach(
      [&](size_t v) { nodes_out.push_back(static_cast<NodeId>(v)); });
  std::erase_if(mg_edges, [&](const std::pair<NodeId, NodeId>& e) {
    return !in_component.Test(e.first) || !in_component.Test(e.second);
  });
  return true;
}

// Runs the §4.2 global dual-simulation fixpoint on (qeff, g) and packs
// its memoizable product: per-query-node bitmaps and the surviving
// centers (or proven_empty when the relation is not total). `initial`,
// when non-null, supplies the starting candidate lists (one sorted unique
// superset of the maximum relation per qeff node) instead of whole label
// classes — the cross-query seeding path; the fixpoint below a superset
// of the maximum relation lands on the maximum relation, so the packed
// result is identical either way. `diameter` is dQ of the original
// pattern, the filter's witness radius.
void FillDualFilter(const Graph& qeff, const Graph& g,
                    const std::vector<std::vector<NodeId>>* initial,
                    uint32_t diameter, DualFilterResult* out) {
  Timer filter_timer;
  out->witness_radius = diameter;
  const MatchRelation global = internal::RefineSimulation(
      qeff, g, /*dual=*/true, initial, /*seeds=*/nullptr);
  if (!global.IsTotal()) {
    out->proven_empty = true;
    out->seconds = filter_timer.Seconds();
    return;
  }
  const size_t nq_eff = qeff.num_nodes();
  out->bits.assign(nq_eff, DynamicBitset(g.num_nodes()));
  DynamicBitset any_match(g.num_nodes());
  for (size_t u = 0; u < nq_eff; ++u) {
    for (NodeId v : global.sim[u]) {
      out->bits[u].Set(v);
      any_match.Set(v);
    }
  }
  any_match.ForEach(
      [&](size_t v) { out->centers.push_back(static_cast<NodeId>(v)); });
  out->seconds = filter_timer.Seconds();
}

}  // namespace

namespace internal {

std::optional<PerfectSubgraph> ProcessBall(const MatchContext& context,
                                           const Ball& ball, MatchStats* stats,
                                           MatchScratch* scratch) {
  MatchScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  ScopedSecondsAccumulator stage(&stats->refine_seconds);

  const Graph& qeff = *context.effective_pattern;
  const Graph& q = *context.original_pattern;
  const size_t nq_eff = qeff.num_nodes();
  const MatchOptions& options = context.options;

  ++stats->balls_considered;

  // Candidate sets (local ids). With the dual filter on, project the
  // global relation into the ball; otherwise label classes.
  auto& cand = scratch->cand;
  cand.resize(nq_eff);
  for (auto& list : cand) list.clear();
  if (context.global_bits != nullptr) {
    for (size_t u = 0; u < nq_eff; ++u) {
      const DynamicBitset& bits = (*context.global_bits)[u];
      for (NodeId local = 0; local < ball.graph.num_nodes(); ++local) {
        if (bits.Test(ball.to_global[local])) cand[u].push_back(local);
      }
    }
  } else {
    for (size_t u = 0; u < nq_eff; ++u) {
      auto cls = ball.graph.NodesWithLabel(qeff.label(static_cast<NodeId>(u)));
      cand[u].assign(cls.begin(), cls.end());
    }
  }

  if (options.connectivity_pruning) {
    if (!PruneToCenterComponent(ball, &cand, scratch)) {
      ++stats->balls_skipped_pruning;
      return std::nullopt;
    }
  }
  for (const auto& list : cand) stats->candidate_pairs_refined += list.size();

  // Refine. With the dual filter on, only border nodes can seed
  // violations (Prop 5 / Fig. 5 dualFilter).
  MatchRelation& sw = scratch->sw;
  if (context.global_bits != nullptr) {
    auto& seeds = scratch->seeds;
    seeds.clear();
    for (NodeId v = 0; v < ball.is_border.size(); ++v) {
      if (ball.is_border[v]) seeds.push_back(v);
    }
    RefineSimulationInto(qeff, ball.graph, /*dual=*/true, &cand, &seeds,
                         &scratch->refine, &sw);
  } else {
    RefineSimulationInto(qeff, ball.graph, /*dual=*/true, &cand, nullptr,
                         &scratch->refine, &sw);
  }
  if (!sw.IsTotal()) {
    ++stats->balls_center_unmatched;
    return std::nullopt;
  }

  if (!ExtractMaxPG(qeff, ball, sw, scratch)) {
    ++stats->balls_center_unmatched;
    return std::nullopt;
  }
  // subgraphs_found is counted by the emitting loop (post-dedup), not
  // here: every executor agrees on the emitted count that way.

  PerfectSubgraph pg;
  pg.center = ball.center;
  pg.radius = context.radius;
  pg.nodes.reserve(scratch->pg_nodes.size());
  for (NodeId v : scratch->pg_nodes) pg.nodes.push_back(ball.to_global[v]);
  std::sort(pg.nodes.begin(), pg.nodes.end());
  pg.edges.reserve(scratch->pg_edges.size());
  for (const auto& [a, b] : scratch->pg_edges) {
    pg.edges.emplace_back(ball.to_global[a], ball.to_global[b]);
  }
  std::sort(pg.edges.begin(), pg.edges.end());

  // Relation restricted to the component, expanded to original query
  // nodes when minimization ran, translated to global ids.
  const DynamicBitset& component = scratch->in_component;
  pg.relation = MatchRelation(q.num_nodes());
  for (NodeId u = 0; u < q.num_nodes(); ++u) {
    const NodeId ue =
        context.class_of != nullptr ? (*context.class_of)[u] : u;
    for (NodeId v : sw.sim[ue]) {
      if (component.Test(v)) pg.relation.sim[u].push_back(ball.to_global[v]);
    }
    std::sort(pg.relation.sim[u].begin(), pg.relation.sim[u].end());
  }
  return pg;
}

}  // namespace internal

size_t CanonicalizeSubgraphs(bool dedup,
                             std::vector<PerfectSubgraph>* subgraphs) {
  size_t removed = 0;
  if (dedup) {
    std::vector<PerfectSubgraph> kept;
    std::unordered_map<uint64_t, size_t> index_by_hash;
    for (PerfectSubgraph& pg : *subgraphs) {
      auto [it, inserted] =
          index_by_hash.try_emplace(pg.ContentHash(), kept.size());
      if (inserted) {
        kept.push_back(std::move(pg));
      } else if (pg.center < kept[it->second].center) {
        kept[it->second] = std::move(pg);
      }
    }
    removed = subgraphs->size() - kept.size();
    *subgraphs = std::move(kept);
  }
  // Centers are unique per result in practice (one subgraph per ball);
  // the content-hash tie-break keeps the order deterministic even if two
  // results ever shared a center.
  std::sort(subgraphs->begin(), subgraphs->end(),
            [](const PerfectSubgraph& a, const PerfectSubgraph& b) {
              if (a.center != b.center) return a.center < b.center;
              return a.ContentHash() < b.ContentHash();
            });
  return removed;
}

Result<PatternPrep> PreparePattern(const Graph& q, bool minimize) {
  GPM_CHECK(q.finalized());
  if (q.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  if (!IsConnected(q))
    return Status::InvalidArgument(
        "pattern graph must be connected (paper §2.1)");
  PatternPrep prep;
  // Ball radius: the pattern diameter dQ (before any minimization —
  // Lemma 3 fixes the radius).
  GPM_ASSIGN_OR_RETURN(prep.diameter, Diameter(q));
  if (minimize) {
    GPM_ASSIGN_OR_RETURN(MinimizedQuery mq, MinimizeQuery(q));
    prep.minimized = std::move(mq.minimized);
    prep.class_of = std::move(mq.class_of);
    prep.has_minimized = true;
  }
  return prep;
}

namespace internal {

Status BuildRunState(const Graph& q, const Graph& g,
                     const MatchOptions& options, const PatternPrep& prep,
                     RunState* state, MatchStats* stats,
                     const DualFilterResult* filter) {
  state->radius =
      options.radius_override != 0 ? options.radius_override : prep.diameter;
  stats->pattern_diameter = prep.diameter;

  // Optional minQ: use the prepared quotient, computing it here only when
  // the prep was built without minimization. Results are expanded back to
  // original query nodes by ProcessBall.
  state->effective_pattern = &q;
  state->class_of = nullptr;
  if (options.minimize_query) {
    if (prep.has_minimized) {
      state->effective_pattern = &prep.minimized;
      state->class_of = &prep.class_of;
    } else {
      GPM_ASSIGN_OR_RETURN(MinimizedQuery mq, MinimizeQuery(q));
      state->qmin_storage = std::move(mq.minimized);
      state->class_of_storage = std::move(mq.class_of);
      state->effective_pattern = &state->qmin_storage;
      state->class_of = &state->class_of_storage;
    }
    stats->minimized_pattern_size = state->effective_pattern->num_nodes() +
                                    state->effective_pattern->num_edges();
  }
  const size_t nq_eff = state->effective_pattern->num_nodes();

  // Optional global dual-simulation filter (always per-(pattern, data):
  // it depends on g, so it cannot live in the PatternPrep). A memoized
  // `filter` — from ComputeDualFilter on the same (q, g, minimize_query) —
  // is pointed into instead of recomputed: the serving-path reuse seam.
  if (options.dual_filter) {
    if (filter == nullptr) {
      FillDualFilter(*state->effective_pattern, g, /*initial=*/nullptr,
                     prep.diameter, &state->filter_storage);
      stats->global_filter_seconds = state->filter_storage.seconds;
      filter = &state->filter_storage;
    }
    if (filter->proven_empty) {
      stats->balls_skipped_filter = g.num_nodes();
      state->proven_empty = true;
      return Status::OK();
    }
    // A reused filter must have been computed on the same effective
    // pattern (same minimize_query) — the bitmap count betrays a mismatch.
    GPM_CHECK_EQ(filter->bits.size(), nq_eff);
    state->filter = filter;
    state->global_bits = &filter->bits;
    state->centers = &filter->centers;
    stats->balls_skipped_filter = g.num_nodes() - filter->centers.size();
  } else {
    state->centers_storage.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) state->centers_storage[v] = v;
    state->centers = &state->centers_storage;
  }
  state->context.original_pattern = &q;
  state->context.effective_pattern = state->effective_pattern;
  state->context.class_of = state->class_of;
  state->context.global_bits = state->global_bits;
  state->context.radius = state->radius;
  state->context.options = options;
  return Status::OK();
}

}  // namespace internal

Result<DualFilterResult> ComputeDualFilter(const Graph& q, const Graph& g,
                                           bool minimize_query,
                                           const PatternPrep* prep) {
  GPM_CHECK(q.finalized() && g.finalized());
  PatternPrep local_prep;
  if (prep == nullptr) {
    GPM_ASSIGN_OR_RETURN(local_prep, PreparePattern(q, minimize_query));
    prep = &local_prep;
  }
  // Resolve the effective pattern exactly as BuildRunState does, so the
  // bitmaps line up with the run that later reuses them.
  const Graph* qeff = &q;
  Graph qmin_storage;
  if (minimize_query) {
    if (prep->has_minimized) {
      qeff = &prep->minimized;
    } else {
      GPM_ASSIGN_OR_RETURN(MinimizedQuery mq, MinimizeQuery(q));
      qmin_storage = std::move(mq.minimized);
      qeff = &qmin_storage;
    }
  }
  DualFilterResult out;
  FillDualFilter(*qeff, g, /*initial=*/nullptr, prep->diameter, &out);
  return out;
}

Result<DualFilterResult> ComputeDualFilterSeeded(
    const Graph& q, const Graph& g, bool minimize_query,
    const PatternPrep* prep, const std::vector<std::vector<NodeId>>& initial) {
  GPM_CHECK(q.finalized() && g.finalized());
  PatternPrep local_prep;
  if (prep == nullptr) {
    GPM_ASSIGN_OR_RETURN(local_prep, PreparePattern(q, minimize_query));
    prep = &local_prep;
  }
  const Graph* qeff = &q;
  Graph qmin_storage;
  if (minimize_query) {
    if (prep->has_minimized) {
      qeff = &prep->minimized;
    } else {
      GPM_ASSIGN_OR_RETURN(MinimizedQuery mq, MinimizeQuery(q));
      qmin_storage = std::move(mq.minimized);
      qeff = &qmin_storage;
    }
  }
  GPM_CHECK_EQ(initial.size(), qeff->num_nodes());
  DualFilterResult out;
  FillDualFilter(*qeff, g, &initial, prep->diameter, &out);
  return out;
}

namespace {

// MatchStrong and MatchStrongParallel: one plain program, run alone.
Result<std::vector<PerfectSubgraph>> RunStrongAlone(
    const Graph& q, const Graph& g, const MatchOptions& options,
    size_t threads, MatchStats* stats, const PatternPrep* prep,
    const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux) {
  GPM_CHECK(q.finalized() && g.finalized());
  Timer timer;
  PatternPrep local_prep;
  if (prep == nullptr) {
    GPM_ASSIGN_OR_RETURN(local_prep, PreparePattern(q, /*minimize=*/false));
    prep = &local_prep;
  }
  internal::RunState state;
  internal::BallProgram program;
  program.dedup = options.dedup;
  GPM_RETURN_NOT_OK(internal::BuildRunState(q, g, options, *prep, &state,
                                            &program.stats, filter));
  CsrGraph local_csr;
  if (!state.proven_empty) {
    // The ball loop runs on a CSR snapshot of g: the caller's memoized one
    // if provided, a local conversion otherwise.
    if (csr == nullptr) {
      local_csr = CsrGraph::FromGraph(g);
      csr = &local_csr;
    }
    internal::AttachStrongProgram(*csr, aux, &state, &program);
  }
  return internal::RunAlone(csr, state.aux, state.radius, &program, threads,
                            timer, stats);
}

}  // namespace

Result<std::vector<PerfectSubgraph>> MatchStrong(
    const Graph& q, const Graph& g, const MatchOptions& options,
    MatchStats* stats, const PatternPrep* prep, const DualFilterResult* filter,
    const CsrGraph* csr, const AuxGraphResult* aux) {
  return RunStrongAlone(q, g, options, /*threads=*/1, stats, prep, filter, csr,
                        aux);
}

Result<std::vector<PerfectSubgraph>> MatchStrongParallel(
    const Graph& q, const Graph& g, const MatchOptions& options,
    size_t num_threads, MatchStats* stats, const PatternPrep* prep,
    const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux) {
  return RunStrongAlone(q, g, options, internal::ResolveThreads(num_threads),
                        stats, prep, filter, csr, aux);
}

Result<std::vector<PerfectSubgraph>> MatchStrongPlus(const Graph& q,
                                                     const Graph& g,
                                                     MatchStats* stats) {
  return MatchStrong(q, g, MatchPlusOptions(), stats);
}

std::optional<PerfectSubgraph> MatchSingleBall(const Graph& q,
                                               const Ball& ball) {
  GPM_CHECK(q.finalized());
  const size_t nq = q.num_nodes();
  std::vector<std::vector<NodeId>> cand(nq);
  for (size_t u = 0; u < nq; ++u) {
    auto cls = ball.graph.NodesWithLabel(q.label(static_cast<NodeId>(u)));
    cand[u].assign(cls.begin(), cls.end());
  }
  MatchRelation sw =
      internal::RefineSimulation(q, ball.graph, /*dual=*/true, &cand, nullptr);
  if (!sw.IsTotal()) return std::nullopt;

  internal::MatchScratch scratch;
  if (!ExtractMaxPG(q, ball, sw, &scratch)) return std::nullopt;

  PerfectSubgraph pg;
  pg.center = ball.center;
  pg.radius = ball.radius;
  for (NodeId v : scratch.pg_nodes) pg.nodes.push_back(ball.to_global[v]);
  std::sort(pg.nodes.begin(), pg.nodes.end());
  for (const auto& [a, b] : scratch.pg_edges) {
    pg.edges.emplace_back(ball.to_global[a], ball.to_global[b]);
  }
  std::sort(pg.edges.begin(), pg.edges.end());
  pg.relation = MatchRelation(nq);
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId v : sw.sim[u]) {
      if (scratch.in_component.Test(v))
        pg.relation.sim[u].push_back(ball.to_global[v]);
    }
    std::sort(pg.relation.sim[u].begin(), pg.relation.sim[u].end());
  }
  return pg;
}

Result<bool> StronglySimulates(const Graph& q, const Graph& g) {
  // The dual filter short-circuits the common negative case.
  MatchOptions options = MatchPlusOptions();
  GPM_ASSIGN_OR_RETURN(std::vector<PerfectSubgraph> subgraphs,
                       MatchStrong(q, g, options));
  return !subgraphs.empty();
}

}  // namespace gpm
