#include "matching/ball_loop.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/bounded_queue.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace gpm::internal {

namespace {

// Backpressure window per worker: deep enough to ride out a briefly slow
// sink, shallow enough that a stopped consumer bounds buffered results.
constexpr size_t kQueueDepthPerWorker = 8;

// Hands one finished subgraph to its program, on the calling thread. A
// collector keeps, per content hash, the smallest-center instance (the
// representative of the canonical batch form, whatever the arrival order);
// a sink gets each distinct subgraph on its first arrival. Returns false
// iff the sink stopped the stream.
bool Accept(BallProgram& program, PerfectSubgraph&& pg, const Timer& timer) {
  MatchStats& stats = program.stats;
  ScopedSecondsAccumulator emit_stage(&stats.emit_seconds);
  if (program.dedup) {
    const auto [seen, first] =
        program.seen.try_emplace(pg.ContentHash(), program.subgraphs.size());
    if (!first) {
      ++stats.duplicates_removed;
      if (program.sink == nullptr) {
        PerfectSubgraph& kept = program.subgraphs[seen->second];
        if (pg.center < kept.center) kept = std::move(pg);
      }
      return true;
    }
  }
  if (program.sink == nullptr) {
    if (program.subgraphs.empty()) {
      stats.seconds_to_first_subgraph = timer.Seconds();
    }
    program.subgraphs.push_back(std::move(pg));
    return true;
  }
  if (program.delivered++ == 0) {
    stats.seconds_to_first_subgraph = timer.Seconds();
  }
  return (*program.sink)(std::move(pg));
}

// One scheduler thread's share of the loop: its ball builder, ball,
// scratch, and a stats block (merged into the program once the loop is
// done).
class BallWorker {
 public:
  BallWorker(const CsrGraph& csr, const AuxGraphResult* aux, uint32_t radius,
             const BallStep& step)
      : radius_(radius), step_(step) {
    if (aux != nullptr) {
      aux_builder_.emplace(csr, *aux);
    } else {
      csr_builder_.emplace(csr);
    }
  }
  BallWorker(const BallWorker&) = delete;
  BallWorker& operator=(const BallWorker&) = delete;

  // This worker visits no center at or past `end`; its aux sweeps stop
  // there too.
  void SetCenterEnd(NodeId end) {
    if (aux_builder_.has_value()) aux_builder_->SetLaneEnd(end);
  }

  // Builds `center`'s ball and runs the step on it, returning the ball's
  // perfect subgraph, if any.
  std::optional<PerfectSubgraph> Visit(NodeId center) {
    {
      ScopedSecondsAccumulator build_stage(&stats_.ball_build_seconds);
      if (aux_builder_.has_value()) {
        aux_builder_->Build(center, radius_, &ball_);
      } else {
        csr_builder_->Build(center, radius_, &ball_);
      }
    }
    return step_(ball_, &stats_, &scratch_);
  }

  // Adds this worker's counters and stage times (CPU-seconds, summed
  // across workers) to the program's stats.
  void MergeStats(MatchStats* total) const {
    total->balls_considered += stats_.balls_considered;
    total->balls_skipped_pruning += stats_.balls_skipped_pruning;
    total->balls_center_unmatched += stats_.balls_center_unmatched;
    total->candidate_pairs_refined += stats_.candidate_pairs_refined;
    total->ball_build_seconds += stats_.ball_build_seconds;
    total->refine_seconds += stats_.refine_seconds;
  }

 private:
  const uint32_t radius_;
  const BallStep& step_;
  std::optional<AuxBallBuilder> aux_builder_;
  std::optional<CsrBallBuilder> csr_builder_;
  Ball ball_;
  BallScratch scratch_;
  MatchStats stats_;
};

}  // namespace

void BallProgram::Finish() {
  if (sink == nullptr) {
    // Accept already kept one min-center instance per subgraph; what is
    // left of the canonical form is the (center, content-hash) order.
    ScopedSecondsAccumulator emit_stage(&stats.emit_seconds);
    CanonicalizeSubgraphs(/*dedup=*/false, &subgraphs);
    delivered = subgraphs.size();
  }
  stats.subgraphs_found = delivered;
}

void RunBallLoop(const CsrGraph& csr, const AuxGraphResult* aux,
                 uint32_t radius, BallProgram* program, size_t threads,
                 const Timer& timer) {
  GPM_CHECK(program->centers != nullptr);
  const std::vector<NodeId>& centers = *program->centers;
  const size_t shards = std::min(threads, centers.size());
  if (shards <= 1) {
    BallWorker worker(csr, aux, radius, program->step);
    for (NodeId center : centers) {
      std::optional<PerfectSubgraph> pg = worker.Visit(center);
      if (pg.has_value() && !Accept(*program, std::move(*pg), timer)) break;
    }
    worker.MergeStats(&program->stats);
    return;
  }

  // Sharded: contiguous center ranges, one worker each, results through
  // one bounded ring to this thread, which alone calls Accept.
  const size_t per_shard = (centers.size() + shards - 1) / shards;
  std::vector<std::optional<BallWorker>> workers(shards);
  BoundedQueue<PerfectSubgraph> queue(shards * kQueueDepthPerWorker);
  std::atomic<size_t> producing{shards};
  {
    ThreadPool pool(shards);
    for (size_t s = 0; s < shards; ++s) {
      pool.Submit([&, s] {
        BallWorker& worker =
            workers[s].emplace(csr, aux, radius, program->step);
        const size_t end = std::min(centers.size(), (s + 1) * per_shard);
        if (end < centers.size()) worker.SetCenterEnd(centers[end]);
        bool open = true;
        for (size_t i = s * per_shard;
             i < end && open && !queue.token().IsCancelled(); ++i) {
          std::optional<PerfectSubgraph> pg = worker.Visit(centers[i]);
          if (pg.has_value()) open = queue.Push(std::move(*pg));
        }
        // Last producer out closes the stream so the drain ends.
        if (producing.fetch_sub(1) == 1) queue.Close();
      });
    }
    while (std::optional<PerfectSubgraph> pg = queue.Pop()) {
      if (!Accept(*program, std::move(*pg), timer)) {
        queue.Cancel();
        break;
      }
    }
    pool.Wait();
  }
  for (const std::optional<BallWorker>& worker : workers) {
    worker->MergeStats(&program->stats);
  }
}

size_t ResolveThreads(size_t threads) {
  return threads != 0 ? threads
                      : std::max<size_t>(1, std::thread::hardware_concurrency());
}

std::vector<PerfectSubgraph> RunAlone(const CsrGraph* csr,
                                      const AuxGraphResult* aux,
                                      uint32_t radius, BallProgram* program,
                                      size_t threads, const Timer& timer,
                                      MatchStats* stats) {
  if (program->centers != nullptr) {
    RunBallLoop(*csr, aux, radius, program, threads, timer);
  }
  program->Finish();
  program->stats.total_seconds = timer.Seconds();
  if (stats != nullptr) *stats = program->stats;
  return std::move(program->subgraphs);
}

void AttachStrongProgram(const CsrGraph& csr, const AuxGraphResult* aux,
                         RunState* state, BallProgram* program) {
  if (state->filter != nullptr) {
    if (aux == nullptr) {
      state->aux_storage = BuildAuxGraph(csr, *state->filter, state->radius);
      program->stats.global_filter_seconds += state->aux_storage.seconds;
      aux = &state->aux_storage;
    }
    GPM_CHECK_EQ(aux->radius, state->radius);
    state->aux = aux;
    state->centers = &aux->centers;
    program->stats.balls_skipped_index = aux->centers_skipped_index;
  }
  const MatchContext* context = &state->context;
  program->step = [context](const Ball& ball, MatchStats* stats,
                            BallScratch* scratch) {
    return ProcessBall(*context, ball, stats, &scratch->plain);
  };
  program->centers = state->centers;
}

}  // namespace gpm::internal
