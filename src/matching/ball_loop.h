// The in-process ball loop: Fig. 3's "for each surviving center, build the
// ball, refine the dual relation on it, emit ExtractMaxPG", shared by every
// Serial and Parallel strong-family run. One request is one BallProgram,
// run by itself over its own balls: a lone MatchStrong*, MatchStrongRegex*
// or Engine::Match call, and each item of Engine::MatchBatch in turn.
// Locality (§4.3) makes every ball independent, so the loop has exactly
// two schedulers: inline in ascending center order, or contiguous center
// shards on worker threads that hand their results through one bounded
// MPSC ring to the calling thread.
//
// The loop knows nothing of pattern kinds: a program's per-ball step is a
// callable (internal::ProcessBall for plain patterns, the regex pipeline
// of extensions/regex_strong.h for regex ones), so this layer never
// includes extensions/. The distributed BSP sites and the incremental
// recompute loop keep their own schedulers over fragment and MutableGraph
// balls.

#ifndef GPM_MATCHING_BALL_LOOP_H_
#define GPM_MATCHING_BALL_LOOP_H_

#include <any>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/strong_simulation.h"
#include "matching/strong_simulation_internal.h"

namespace gpm::internal {

/// Per-worker scratch of the ball loop: grown to the worker's high-water
/// ball once and reused by every ball the worker visits.
struct BallScratch {
  MatchScratch plain;
  /// Scratch of a step defined outside matching/ (the regex pipeline's
  /// RegexBallScratch), created by that step on its first ball.
  std::any extension;
};

/// One program's per-ball pipeline on a prebuilt ball: charges its
/// refinement counters and refine_seconds to `stats` and returns the
/// ball's perfect subgraph, or nullopt when the center yields none. Runs
/// on worker threads, so it must only read shared state.
using BallStep = std::function<std::optional<PerfectSubgraph>(
    const Ball&, MatchStats*, BallScratch*)>;

/// \brief The one request of a ball loop: its per-ball step, the centers
/// it visits, and where its subgraphs go (a sink, or the `subgraphs`
/// collector).
struct BallProgram {
  BallStep step;
  /// The centers this program visits, ascending; null when the filter
  /// proved Θ empty and there is nothing to visit.
  const std::vector<NodeId>* centers = nullptr;
  /// Report each distinct subgraph once (MatchOptions::dedup).
  bool dedup = true;
  /// Streaming target; null collects into `subgraphs`.
  const SubgraphSink* sink = nullptr;

  MatchStats stats;
  std::vector<PerfectSubgraph> subgraphs;  ///< collected (sink == null)
  /// Subgraphs handed to the sink; after Finish, also the collected count.
  size_t delivered = 0;

  /// The content hashes seen so far (with, for a collector, the index of
  /// the kept instance).
  std::unordered_map<uint64_t, size_t> seen;

  /// Puts a run's outcome in final form: collected subgraphs become the
  /// canonical batch result (the min-center instance of each distinct
  /// subgraph, in (center, content-hash) order — as CanonicalizeSubgraphs
  /// produces), and subgraphs_found counts what was delivered or kept.
  void Finish();
};

/// Runs `program` over the balls of its centers (which must be non-null).
/// Each ball is built from `aux`'s pruned adjacency when non-null and from
/// `csr` otherwise. `threads <= 1` runs inline in ascending center order,
/// the center sequence of a lone serial run; otherwise contiguous center
/// shards run on `threads` workers and results arrive in completion order.
/// Either way the sink or collector is only called from the calling
/// thread, and a sink returning false stops the loop: no further ball is
/// built. Stage times go to the program's stats; `timer` dates
/// seconds_to_first_subgraph.
void RunBallLoop(const CsrGraph& csr, const AuxGraphResult* aux,
                 uint32_t radius, BallProgram* program, size_t threads,
                 const Timer& timer);

/// ExecPolicy::Parallel's thread count: 0 means hardware concurrency.
size_t ResolveThreads(size_t threads);

/// The tail of every in-process run (the MatchStrong* and MatchStrongRegex*
/// functions, and each Engine::Match): runs `program` over `csr` (when it
/// has centers; `csr` may be null otherwise), finishes it, stamps
/// total_seconds from `timer`, copies the stats to `stats` (if non-null)
/// and returns the collected subgraphs.
std::vector<PerfectSubgraph> RunAlone(const CsrGraph* csr,
                                      const AuxGraphResult* aux,
                                      uint32_t radius, BallProgram* program,
                                      size_t threads, const Timer& timer,
                                      MatchStats* stats);

/// Makes `program` run the plain per-ball pipeline (ProcessBall) of a built
/// run state. Dual-filtered runs first attach the pruned auxiliary graph:
/// `aux` when non-null (a memo for the same filter and radius), else a
/// local build charged to global_filter_seconds; the program then visits
/// its landmark-filtered centers. `state` must stay put while the program
/// runs.
void AttachStrongProgram(const CsrGraph& csr, const AuxGraphResult* aux,
                         RunState* state, BallProgram* program);

}  // namespace gpm::internal

#endif  // GPM_MATCHING_BALL_LOOP_H_
