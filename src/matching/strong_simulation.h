// Strong simulation ≺LD (paper §2.2) and the Match algorithm (Fig. 3),
// together with the §4.2 optimizations (query minimization, dual-simulation
// filtering, connectivity pruning), each independently toggleable.
//
//   MatchStrong(q, g)      — the baseline Match algorithm
//   MatchStrongPlus(q, g)  — Match+ with all optimizations enabled
//
// Both run as one program of the in-process ball loop
// (matching/ball_loop.h) on its serial scheduler; MatchStrongParallel
// (matching/parallel_match.h) is the same program on its sharded one.
//
// Every option combination returns the same set of maximum perfect
// subgraphs (Theorem 1 uniqueness; the test suite asserts equality).

#ifndef GPM_MATCHING_STRONG_SIMULATION_H_
#define GPM_MATCHING_STRONG_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "graph/graph.h"
#include "matching/match_relation.h"

namespace gpm {

class CsrGraph;        // graph/csr_graph.h
struct AuxGraphResult;  // matching/aux_graph.h

/// \brief One maximum perfect subgraph Gs: the connected component
/// containing the ball center of the match graph w.r.t. the maximum dual
/// match relation on the ball (Theorems 1-2).
struct PerfectSubgraph {
  NodeId center = kInvalidNode;  ///< ball center (data-graph id)
  uint32_t radius = 0;           ///< ball radius used (= dQ by default)
  std::vector<NodeId> nodes;     ///< Gs nodes, data-graph ids, sorted
  /// Gs edges (match-graph edges), data-graph ids, sorted.
  std::vector<std::pair<NodeId, NodeId>> edges;
  /// Match relation restricted to Gs, in terms of the *original* pattern's
  /// query nodes (even when query minimization ran) and data-graph ids.
  MatchRelation relation;

  /// Stable content hash over (nodes, edges) — the dedup key.
  uint64_t ContentHash() const;

  /// True iff this and `other` have identical node and edge sets.
  bool SameSubgraph(const PerfectSubgraph& other) const {
    return nodes == other.nodes && edges == other.edges;
  }

  /// Materializes Gs as a Graph (labels from g); local ids follow `nodes`
  /// order.
  Graph AsGraph(const Graph& g) const;
};

/// \brief Knobs for Match. Defaults reproduce the un-optimized Fig. 3
/// algorithm; MatchPlusOptions() enables all §4.2 optimizations.
struct MatchOptions {
  /// §4.2 "query minimization": run minQ first, expand the relation back
  /// to original query nodes in the results. Ball radius stays the
  /// original diameter (Lemma 3).
  bool minimize_query = false;
  /// §4.2 "dual simulation filtering": compute dual simulation once on the
  /// whole data graph, only build balls around matched centers, project the
  /// global relation into each ball, and re-refine from border nodes only
  /// (Prop 5, Fig. 5).
  bool dual_filter = false;
  /// §4.2 "connectivity pruning": inside each ball, keep only candidates in
  /// the connected component (of the candidate-induced subgraph) that
  /// contains the center (Theorem 2).
  bool connectivity_pruning = false;
  /// Report each distinct perfect subgraph once (Θ is a set). Disable to
  /// get the raw one-result-per-ball stream.
  bool dedup = true;
  /// Overrides the ball radius; 0 means "use the pattern diameter dQ".
  /// (Lemma 3 equivalences are stated for a fixed radius.)
  uint32_t radius_override = 0;
};

/// All §4.2 optimizations on — the paper's Match+.
inline MatchOptions MatchPlusOptions() {
  MatchOptions o;
  o.minimize_query = true;
  o.dual_filter = true;
  o.connectivity_pruning = true;
  return o;
}

/// \brief Observability counters for one Match run (ablation benches).
struct MatchStats {
  size_t balls_considered = 0;       ///< centers for which a ball was built
  size_t balls_skipped_filter = 0;   ///< centers skipped by dual filter
  size_t balls_skipped_pruning = 0;  ///< centers skipped by pruning
  /// Filter-surviving centers additionally skipped by the landmark
  /// distance index (matching/aux_graph.h): their balls provably miss all
  /// candidates of some query node, so no BFS ran at all.
  size_t balls_skipped_index = 0;
  size_t balls_center_unmatched = 0; ///< Sw empty or center not in Sw
  /// Emitted (post-dedup) perfect subgraphs — identical across Serial,
  /// Parallel, and Distributed runs of the same request. The raw per-ball
  /// count is subgraphs_found + duplicates_removed.
  size_t subgraphs_found = 0;
  size_t duplicates_removed = 0;
  size_t candidate_pairs_refined = 0;  ///< Σ per-ball initial candidates
  double global_filter_seconds = 0;
  /// Per-stage wall-clock breakdown of the ball loop, so a regression
  /// localizes to a stage instead of a total. Under the parallel scheduler
  /// these are summed across workers (CPU-seconds), so they can exceed
  /// total_seconds.
  double ball_build_seconds = 0;  ///< BFS + induced-subgraph construction
  double refine_seconds = 0;      ///< candidate projection, pruning, dual
                                  ///< fixpoint, ExtractMaxPG per ball
  double emit_seconds = 0;        ///< dedup + canonicalize + sink delivery
  double total_seconds = 0;
  /// Wall clock from the start of the run until the first perfect subgraph
  /// was emitted (0 when none were). Streaming executors hand that first
  /// subgraph to the sink at this time — the serving-path latency metric —
  /// while batch runs record when it became available internally.
  double seconds_to_first_subgraph = 0;
  uint32_t pattern_diameter = 0;
  size_t minimized_pattern_size = 0;  ///< |Qm| when minimization ran
  /// Engine serving-path counters for this run (0/1 each): whether the
  /// global dual filter was served from the engine's memo vs recomputed.
  /// Both stay 0 when the run bypassed the cache (filter off, caching
  /// disabled, or a non-engine call).
  size_t filter_cache_hits = 0;
  size_t filter_cache_misses = 0;
  /// Same, for the engine's materialized-result cache: a hit means this
  /// response was served from memory and no matching ran at all (the other
  /// counters then describe the original computing run).
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;
  /// Always 0: no request shares ball construction with another
  /// (MatchBatch runs each item as a lone Match). Kept so readers of the
  /// stats that still sum it keep compiling.
  size_t balls_shared = 0;
  /// Engine cross-query counters (0/1 each). result_served_equivalent: the
  /// response was a cached result of an isomorphic pattern, translated
  /// through the canonical-order witness. filter_seeded_containment: the
  /// global dual filter's fixpoint started from a containing cached
  /// pattern's survivors instead of whole label classes (byte-identical
  /// outcome, less work).
  size_t result_served_equivalent = 0;
  size_t filter_seeded_containment = 0;
};

/// \brief Per-pattern state reusable across data graphs: the §4.2
/// per-query preprocessing (connectivity validation, pattern diameter dQ,
/// and optionally the minQ quotient). Computed once by PreparePattern —
/// e.g. behind gpm::Engine::Prepare — so repeated requests against
/// changing data graphs skip this work.
struct PatternPrep {
  uint32_t diameter = 0;         ///< dQ of the *original* pattern
  bool has_minimized = false;    ///< minQ ran; the two fields below are valid
  Graph minimized;               ///< the quotient pattern Qm (Fig. 4)
  std::vector<NodeId> class_of;  ///< original query node -> Qm node
};

/// Runs the per-pattern preprocessing once. The pattern must be non-empty
/// and connected (§2.1) — InvalidArgument otherwise. `minimize` also runs
/// minQ; a prep with the quotient serves both plain and minimizing runs
/// (the quotient is simply unused when MatchOptions::minimize_query is
/// off).
Result<PatternPrep> PreparePattern(const Graph& q, bool minimize);

/// DualFilterResult::witness_radius when no bound is known.
inline constexpr uint32_t kUnknownWitnessRadius = UINT32_MAX;

/// \brief The memoizable product of the §4.2 global dual-simulation filter
/// on one (pattern, data graph) pair: per-query-node candidate bitmaps
/// over V(G) and the surviving ball centers. Unlike PatternPrep this
/// depends on G, so it is valid exactly until G changes — the engine's
/// per-(pattern, data) cache entry, invalidated by a data-version tick.
struct DualFilterResult {
  /// The global relation was not total: Θ = ∅, no balls need building.
  bool proven_empty = false;
  /// bits[u].Test(v): data node v dual-matches effective-pattern node u.
  /// Indexed by the *effective* pattern (the minQ quotient when the filter
  /// was computed with `minimize_query`). Empty when proven_empty.
  std::vector<DynamicBitset> bits;
  /// Data nodes matched by at least one query node, sorted — the centers
  /// the ball loop visits (Prop 5). Empty when proven_empty.
  std::vector<NodeId> centers;
  /// A radius within which every center provably reaches a candidate of
  /// every effective query node (undirected hops in the data graph), or
  /// kUnknownWitnessRadius. BuildAuxGraph skips its landmark pass at any
  /// ball radius >= this bound, since the pass could not remove a center.
  /// Plain filters set the pattern diameter dQ: a survivor of u follows
  /// the pattern's own path from u to any u' through dual-simulation
  /// witnesses, one data edge per pattern edge. That holds for the minQ
  /// quotient too, because sim_Q(a) = sim_Qm([a]).
  uint32_t witness_radius = kUnknownWitnessRadius;
  /// Wall clock of the fixpoint when it was computed (a reuse costs ~0).
  double seconds = 0;
};

/// Computes the global dual filter for (q, g), resolving the effective
/// pattern exactly like MatchStrong with MatchOptions::dual_filter set
/// (the minQ quotient when `minimize_query`, via `prep` when it carries
/// one). The result can be passed back to MatchStrong / MatchStrongParallel
/// as the `filter` argument to skip the fixpoint, as long as q and g are
/// unchanged and minimize_query matches.
Result<DualFilterResult> ComputeDualFilter(const Graph& q, const Graph& g,
                                           bool minimize_query,
                                           const PatternPrep* prep = nullptr);

/// ComputeDualFilter with explicit initial candidate sets: `initial` must
/// hold one sorted unique data-node list per *effective* pattern node
/// (the minQ quotient node when `minimize_query`), each candidate
/// carrying that node's label, and every list must be a superset of the
/// node's slice of the maximum dual relation. Then the greatest fixpoint
/// below `initial` *is* the maximum relation, and the result is
/// byte-identical to ComputeDualFilter — only cheaper, because the
/// worklist starts from the smaller sets. The engine uses this to seed a
/// contained query's filter from a containing pattern's memoized
/// survivors (see matching/containment.h for the composition lemma that
/// justifies the superset property).
Result<DualFilterResult> ComputeDualFilterSeeded(
    const Graph& q, const Graph& g, bool minimize_query,
    const PatternPrep* prep, const std::vector<std::vector<NodeId>>& initial);

/// \brief Streaming consumer of perfect subgraphs (Engine::Match with a
/// sink, BatchItem::sink, the distributed *Stream functions). Return false
/// to stop the scan early (the ball loop builds no further ball for it;
/// parallel workers and distributed sites are cancelled once nothing is
/// left listening; nothing more is delivered after the stop). Subgraphs
/// are already dedup'd when MatchOptions::dedup is set. Delivery order:
/// ball-center order under the serial scheduler, completion (arrival)
/// order under the parallel and distributed ones. The sink is always
/// invoked from a single thread at a time; it needs no internal locking.
using SubgraphSink = std::function<bool(PerfectSubgraph&&)>;

/// Canonical batch form of a raw per-ball result stream, shared by the
/// parallel and distributed executors: when `dedup` is set, content-equal
/// subgraphs collapse to the smallest-center instance (the representative
/// the sequential center-order scan keeps); the survivors are sorted by
/// (center, ContentHash). This is what makes batch results byte-identical
/// across executors. Returns the number of duplicates removed.
size_t CanonicalizeSubgraphs(bool dedup,
                             std::vector<PerfectSubgraph>* subgraphs);

/// Computes the set Θ of maximum perfect subgraphs of g w.r.t. q
/// (Fig. 3 / Theorem 5; cubic time). The pattern must be non-empty and
/// connected (§2.1) — InvalidArgument otherwise. `stats` is optional.
/// `prep`, when non-null, supplies the precomputed per-pattern state (it
/// must come from PreparePattern on the same pattern). `filter`, when
/// non-null and options.dual_filter is set, supplies a memoized
/// ComputeDualFilter result for the same (q, g, options.minimize_query) —
/// the §4.2 fixpoint is skipped and the run starts at the ball loop.
/// `csr`, when non-null, supplies a CSR snapshot of g (from
/// CsrGraph::FromGraph on the same finalized graph — the engine memoizes
/// one alongside the dual-filter memo); the ball loop then builds balls on
/// the flat adjacency instead of converting g locally. `aux`, when
/// non-null, supplies a memoized BuildAuxGraph result for the same
/// (filter, csr) at the run's effective radius — dual-filtered runs then
/// skip materializing the pruned adjacency locally (they always execute
/// over one: when `aux` is null and the dual filter is on, the executor
/// builds its own). Results are identical either way.
Result<std::vector<PerfectSubgraph>> MatchStrong(
    const Graph& q, const Graph& g, const MatchOptions& options = {},
    MatchStats* stats = nullptr, const PatternPrep* prep = nullptr,
    const DualFilterResult* filter = nullptr, const CsrGraph* csr = nullptr,
    const AuxGraphResult* aux = nullptr);

/// Match with all optimizations (the paper's Match+).
Result<std::vector<PerfectSubgraph>> MatchStrongPlus(
    const Graph& q, const Graph& g, MatchStats* stats = nullptr);

/// True iff Q ≺LD G (at least one perfect subgraph exists).
Result<bool> StronglySimulates(const Graph& q, const Graph& g);

// Forward declarations; defined in matching/ball.h and graph/csr_graph.h.
struct Ball;

/// Processes one prebuilt ball (lines 3-5 of Fig. 3): dual simulation on
/// the ball, then ExtractMaxPG. Returns the ball's maximum perfect
/// subgraph — with node ids translated back through ball.to_global — or
/// nullopt if the center is unmatched. The distributed runtime (§4.3)
/// feeds remotely-assembled balls through this.
std::optional<PerfectSubgraph> MatchSingleBall(const Graph& q,
                                               const Ball& ball);

}  // namespace gpm

#endif  // GPM_MATCHING_STRONG_SIMULATION_H_
