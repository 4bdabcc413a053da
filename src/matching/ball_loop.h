// The in-process ball loop: Fig. 3's "for each surviving center, build the
// ball, refine the dual relation on it, emit ExtractMaxPG", shared by every
// Serial and Parallel strong-family run. A lone MatchStrong*,
// MatchStrongRegex* or Engine::Match call is a batch of one BallProgram;
// Engine::MatchBatch runs one program per batched request over each shared
// (center, radius) ball. Locality (§4.3) makes every ball independent, so
// the loop has exactly two schedulers: inline in ascending center order, or
// contiguous center shards on worker threads that hand their results
// through one bounded MPSC ring to the calling thread.
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
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/timer.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/strong_simulation.h"
#include "matching/strong_simulation_internal.h"

namespace gpm::internal {

/// Per-worker scratch of the ball loop: grown to the worker's high-water
/// ball once and reused by every program the worker serves.
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

/// \brief One interested request of a ball loop: its per-ball step, the
/// centers it visits, and where its subgraphs go (a sink, or the
/// `subgraphs` collector). Not movable: workers poll `stopped` while the
/// calling thread delivers.
struct BallProgram {
  BallStep step;
  /// The centers this program visits, ascending; null when the filter
  /// proved Θ empty and there is nothing to visit.
  const std::vector<NodeId>* centers = nullptr;
  /// Report each distinct subgraph once (MatchOptions::dedup).
  bool dedup = true;
  /// Streaming target; null collects into `subgraphs`.
  const SubgraphSink* sink = nullptr;
  /// Index, among the programs of one RunBallLoop call, of an earlier
  /// program running the identical step (same effective pattern and
  /// refinement inputs): its evaluation of each shared ball is reused
  /// instead of re-run. -1: none.
  int same_step_as = -1;

  MatchStats stats;
  std::vector<PerfectSubgraph> subgraphs;  ///< collected (sink == null)
  /// Subgraphs handed to the sink; after Finish, also the collected count.
  size_t delivered = 0;

  /// The loop's bookkeeping: the centers wanted (over V(G)), the content
  /// hashes seen so far (with, for a collector, the index of the kept
  /// instance), and whether the sink has stopped the stream.
  DynamicBitset wants;
  std::unordered_map<uint64_t, size_t> seen;
  std::atomic<bool> stopped{false};

  /// Puts a run's outcome in final form: collected subgraphs become the
  /// canonical batch result (the min-center instance of each distinct
  /// subgraph, in (center, content-hash) order — as CanonicalizeSubgraphs
  /// produces), and subgraphs_found counts what was delivered or kept.
  void Finish();
};

/// Runs `programs` over the balls of `merged_centers` (ascending; the
/// union of the programs' center lists). Each ball is built once, from
/// `aux`'s pruned adjacency when non-null and from `csr` otherwise, and
/// every program that wants its center runs its step on it. `threads <= 1`
/// runs inline in ascending center order, so each program sees the center
/// sequence of a lone serial run; otherwise contiguous center shards run
/// on `threads` workers and results arrive in completion order. Either way
/// sinks and collectors are only called from the calling thread. A sink
/// returning false stops its program; once every program has stopped, no
/// further ball is built. Stage times go to each program's stats, with a
/// shared build or shared evaluation split among the programs that used
/// it; `timer` dates seconds_to_first_subgraph.
void RunBallLoop(const CsrGraph& csr, const AuxGraphResult* aux,
                 uint32_t radius, const std::vector<NodeId>& merged_centers,
                 std::span<BallProgram* const> programs, size_t threads,
                 const Timer& timer);

/// ExecPolicy::Parallel's thread count: 0 means hardware concurrency.
size_t ResolveThreads(size_t threads);

/// The lone-run tail of the MatchStrong* and MatchStrongRegex* functions:
/// runs `program` by itself over `csr` (when it has centers; `csr` may be
/// null otherwise), finishes it, stamps total_seconds from `timer`, copies
/// the stats to `stats` (if non-null) and returns the collected subgraphs.
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
