// Multi-threaded Match: the Fig. 3 loop is embarrassingly parallel over
// ball centers (every ball is processed independently; Theorem 1 makes
// the result set order-insensitive). The paper exploits this across
// machines (§4.3); MatchStrongParallel exploits it across cores, sharing
// the one-time preprocessing (minQ, global dual filter).
//
// It is MatchStrong on the sharded scheduler of the one ball loop
// (matching/ball_loop.h): worker threads process contiguous center shards
// and hand each perfect subgraph through a bounded ring to the calling
// thread, which collects them into the deterministic batch result.
// Streaming under Parallel goes through Engine::Match with a sink.

#ifndef GPM_MATCHING_PARALLEL_MATCH_H_
#define GPM_MATCHING_PARALLEL_MATCH_H_

#include <cstddef>

#include "matching/strong_simulation.h"

namespace gpm {

/// MatchStrong semantics, computed with `num_threads` workers
/// (0 = hardware concurrency). Returns the identical dedup'd result set,
/// sorted by (center, content hash) — byte-identical to the sequential
/// MatchStrong output for every thread count (when dedup keeps one of
/// several content-equal subgraphs, the smallest-center instance is kept,
/// exactly as the sequential center-order scan does). `prep`, when
/// non-null, supplies the precomputed per-pattern state (from
/// PreparePattern on the same pattern).
/// `filter`, when non-null and options.dual_filter is set, supplies a
/// memoized ComputeDualFilter result for the same (q, g,
/// options.minimize_query), skipping the global fixpoint. `csr`, when
/// non-null, supplies a memoized CSR snapshot of g (CsrGraph::FromGraph on
/// the same finalized graph) that all workers build balls from; a local
/// conversion is made otherwise. `aux`, when non-null, supplies a memoized
/// BuildAuxGraph result (pruned adjacency + landmark-filtered centers) for
/// the same (filter, csr) at the run's radius; dual-filtered runs build
/// one locally otherwise. Results are identical either way.
Result<std::vector<PerfectSubgraph>> MatchStrongParallel(
    const Graph& q, const Graph& g, const MatchOptions& options = {},
    size_t num_threads = 0, MatchStats* stats = nullptr,
    const PatternPrep* prep = nullptr, const DualFilterResult* filter = nullptr,
    const CsrGraph* csr = nullptr, const AuxGraphResult* aux = nullptr);

}  // namespace gpm

#endif  // GPM_MATCHING_PARALLEL_MATCH_H_
