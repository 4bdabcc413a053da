// Internal per-ball pipeline of plain strong simulation and the run state
// it reads, shared by every run of the ball loop (matching/ball_loop.h).
// Not part of the public API.

#ifndef GPM_MATCHING_STRONG_SIMULATION_INTERNAL_H_
#define GPM_MATCHING_STRONG_SIMULATION_INTERNAL_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/bitset.h"
#include "common/timer.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/sim_refiner.h"
#include "matching/strong_simulation.h"

namespace gpm::internal {

/// Immutable preprocessing shared by every center of one Match run:
/// effective (possibly minimized) pattern, ball radius, and the global
/// dual-filter bitmaps when that optimization is on.
struct MatchContext {
  const Graph* original_pattern = nullptr;
  const Graph* effective_pattern = nullptr;  // == original unless minimized
  const std::vector<NodeId>* class_of = nullptr;  // minQ classes, or null
  const std::vector<DynamicBitset>* global_bits = nullptr;  // filter, or null
  uint32_t radius = 0;
  MatchOptions options;
};

/// Per-run preprocessing of one plain strong-simulation run: the effective
/// pattern (original, prep quotient, or a locally computed quotient), ball
/// radius, global dual filter, the pruned auxiliary graph, and the center
/// list. Built once per (pattern, data, options) run from an optional
/// PatternPrep; owns (or, for a memoized filter or aux graph, points into)
/// the storage `context` uses, so both it and any reused memo must stay
/// alive (and unmoved) for the whole run.
struct RunState {
  Graph qmin_storage;                  // quotient computed here if prep lacks it
  std::vector<NodeId> class_of_storage;
  const Graph* effective_pattern = nullptr;
  const std::vector<NodeId>* class_of = nullptr;  // null unless minimizing
  DualFilterResult filter_storage;     // filter computed here if not reused
  /// The dual filter in use (storage or a memoized caller's); null when
  /// the filter is off.
  const DualFilterResult* filter = nullptr;
  /// Dual-filter bitmaps (filter->bits); null when the filter is off.
  const std::vector<DynamicBitset>* global_bits = nullptr;
  std::vector<NodeId> centers_storage;  // identity list when the filter is off
  /// The centers the ball loop visits: the filter's survivors (all nodes
  /// when it is off), narrowed to aux->centers once an aux is attached.
  const std::vector<NodeId>* centers = nullptr;
  uint32_t radius = 0;
  /// Dual filter proved Θ = ∅ (relation not total); skip the ball loop.
  bool proven_empty = false;
  /// The per-ball context over the fields above.
  MatchContext context;
  /// Pruned auxiliary graph of a dual-filtered run (AttachStrongProgram):
  /// a caller's memo or `aux_storage`; null when the filter is off.
  AuxGraphResult aux_storage;
  const AuxGraphResult* aux = nullptr;
};

/// Fills `state` (the context included) from the prepared pattern
/// (diameter + optional quotient) and runs the per-(pattern, data) global
/// dual filter when options.dual_filter is set — unless `filter` supplies a memoized
/// ComputeDualFilter result for the same (q, g, options.minimize_query),
/// in which case the state points into it and the fixpoint is skipped.
/// Updates the preprocessing fields of `stats` (diameter, minimized size,
/// filter seconds, skipped centers).
Status BuildRunState(const Graph& q, const Graph& g,
                     const MatchOptions& options, const PatternPrep& prep,
                     RunState* state, MatchStats* stats,
                     const DualFilterResult* filter = nullptr);

/// Per-worker scratch of ProcessBall: every transient container of
/// ProcessBall lives here and is reused across balls, so a worker reaches
/// its high-water allocation after the first few balls and then runs
/// allocation-free. One instance per thread; contents are meaningless
/// between balls. Callers that pass nullptr get a per-call local (correct
/// but slow — the old behavior).
struct MatchScratch {
  std::vector<std::vector<NodeId>> cand;  ///< per-query-node candidates
  std::vector<NodeId> seeds;              ///< border-node refinement seeds
  SimRefineWorkspace refine;              ///< dual-fixpoint internals
  MatchRelation sw;                       ///< ball-local maximum dual relation
  DynamicBitset is_candidate;             ///< connectivity-pruning mask
  DynamicBitset in_component;             ///< center component / PG membership
  std::vector<NodeId> stack;              ///< DFS stack (pruning + ExtractMaxPG)
  std::vector<NodeId> pg_nodes;           ///< ExtractMaxPG output nodes
  std::vector<std::pair<NodeId, NodeId>> pg_edges;  ///< ... and edges
  ScratchArena arena;  ///< flat match-graph adjacency per ball
};

/// The per-ball pipeline of a plain run (lines 3-5 of Fig. 3) on a ball
/// the ball loop already built: candidate selection (projection under the
/// dual filter, label classes otherwise), optional connectivity pruning,
/// border-seeded dual refinement, ExtractMaxPG, and relation expansion to
/// the original pattern. The ball must come from a ball builder on the
/// run's data graph with context.radius. Accumulates per-center counters
/// and refine_seconds into `stats`. Returns nullopt when the center yields
/// no perfect subgraph.
std::optional<PerfectSubgraph> ProcessBall(const MatchContext& context,
                                           const Ball& ball, MatchStats* stats,
                                           MatchScratch* scratch = nullptr);

}  // namespace gpm::internal

#endif  // GPM_MATCHING_STRONG_SIMULATION_INTERNAL_H_
