#include "matching/ball_loop.h"

#include <algorithm>
#include <memory>
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

// One shared per-ball evaluation in flight: the evaluating program's
// result and stats delta, handed to each program running the same step
// until `remaining` hits zero (then the slot resets for the next center).
struct SharedEval {
  bool computed = false;
  size_t remaining = 0;
  std::optional<PerfectSubgraph> pg;
  MatchStats delta;
};

// Hands one finished subgraph to its program, on the calling thread. A
// collector keeps, per content hash, the smallest-center instance (the
// representative of the canonical batch form, whatever the arrival order);
// a sink gets each distinct subgraph on its first arrival. Returns false
// iff the sink stopped the program just now.
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
  if ((*program.sink)(std::move(pg))) return true;
  program.stopped.store(true, std::memory_order_relaxed);
  return false;
}

// One scheduler thread's share of the loop: its ball builder, ball,
// scratch, shared-evaluation slots, and a stats block per program (merged
// into the programs once the loop is done).
class BallWorker {
 public:
  BallWorker(const CsrGraph& csr, const AuxGraphResult* aux, uint32_t radius,
             std::span<BallProgram* const> programs,
             const std::vector<size_t>& root)
      : radius_(radius),
        programs_(programs),
        root_(root),
        root_active_(programs.size(), 0),
        eval_(programs.size()),
        stats_(programs.size()) {
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

  // Builds `center`'s ball once, if any program still wants it, and runs
  // every interested program's step on it, handing each perfect subgraph
  // to emit(program index, subgraph).
  template <typename Emit>
  void Visit(NodeId center, const Emit& emit) {
    active_.clear();
    for (size_t p = 0; p < programs_.size(); ++p) {
      const BallProgram& program = *programs_[p];
      if (program.wants.Test(center) &&
          !program.stopped.load(std::memory_order_relaxed)) {
        active_.push_back(p);
      }
    }
    if (active_.empty()) return;
    for (const size_t p : active_) root_active_[root_[p]] = 0;
    for (const size_t p : active_) ++root_active_[root_[p]];

    Timer build_timer;
    if (aux_builder_.has_value()) {
      aux_builder_->Build(center, radius_, &ball_);
    } else {
      csr_builder_->Build(center, radius_, &ball_);
    }
    // One build, its cost split across the programs that use it, so
    // summed stats reflect the work actually done.
    const double build_seconds =
        build_timer.Seconds() / static_cast<double>(active_.size());
    for (const size_t p : active_) {
      MatchStats& stats = stats_[p];
      stats.ball_build_seconds += build_seconds;
      if (active_.size() > 1) ++stats.balls_shared;
      // The root program of a step evaluates the ball once; programs with
      // the same step replicate its counters (the work their query
      // logically needs) and split its wall time.
      const size_t r = root_[p];
      SharedEval& ev = eval_[r];
      if (!ev.computed) {
        ev.computed = true;
        ev.delta = MatchStats{};
        ev.pg = programs_[r]->step(ball_, &ev.delta, &scratch_);
        ev.delta.refine_seconds /= static_cast<double>(root_active_[r]);
        ev.remaining = root_active_[r];
      }
      stats.balls_considered += ev.delta.balls_considered;
      stats.balls_skipped_pruning += ev.delta.balls_skipped_pruning;
      stats.balls_center_unmatched += ev.delta.balls_center_unmatched;
      stats.candidate_pairs_refined += ev.delta.candidate_pairs_refined;
      stats.refine_seconds += ev.delta.refine_seconds;
      if (root_active_[r] > 1) ++stats.dual_relations_shared;
      std::optional<PerfectSubgraph> pg;
      if (--ev.remaining == 0) {
        pg = std::move(ev.pg);
        ev = SharedEval{};
      } else {
        pg = ev.pg;
      }
      if (pg.has_value()) emit(p, std::move(*pg));
    }
  }

  // Adds this worker's counters and stage times (CPU-seconds, summed
  // across workers) to the programs' stats.
  void MergeStats() const {
    for (size_t p = 0; p < programs_.size(); ++p) {
      MatchStats& total = programs_[p]->stats;
      const MatchStats& mine = stats_[p];
      total.balls_considered += mine.balls_considered;
      total.balls_skipped_pruning += mine.balls_skipped_pruning;
      total.balls_center_unmatched += mine.balls_center_unmatched;
      total.candidate_pairs_refined += mine.candidate_pairs_refined;
      total.balls_shared += mine.balls_shared;
      total.dual_relations_shared += mine.dual_relations_shared;
      total.ball_build_seconds += mine.ball_build_seconds;
      total.refine_seconds += mine.refine_seconds;
    }
  }

 private:
  const uint32_t radius_;
  const std::span<BallProgram* const> programs_;
  const std::vector<size_t>& root_;
  std::optional<AuxBallBuilder> aux_builder_;
  std::optional<CsrBallBuilder> csr_builder_;
  Ball ball_;
  BallScratch scratch_;
  std::vector<size_t> active_;
  std::vector<size_t> root_active_;
  std::vector<SharedEval> eval_;
  std::vector<MatchStats> stats_;
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
                 uint32_t radius, const std::vector<NodeId>& merged_centers,
                 std::span<BallProgram* const> programs, size_t threads,
                 const Timer& timer) {
  std::vector<size_t> root(programs.size());
  for (size_t p = 0; p < programs.size(); ++p) {
    BallProgram& program = *programs[p];
    GPM_CHECK(program.centers != nullptr);
    root[p] = program.same_step_as >= 0
                  ? static_cast<size_t>(program.same_step_as)
                  : p;
    program.wants.Reinit(csr.num_nodes());
    for (NodeId center : *program.centers) program.wants.Set(center);
  }

  // Programs whose sink has not stopped them; at zero the loop is done.
  size_t running = programs.size();
  auto accept = [&](size_t p, PerfectSubgraph&& pg) {
    BallProgram& program = *programs[p];
    // Results still in flight when their program's sink stopped it.
    if (program.stopped.load(std::memory_order_relaxed)) return;
    if (!Accept(program, std::move(pg), timer)) --running;
  };

  const size_t shards = std::min(threads, merged_centers.size());
  if (shards <= 1) {
    BallWorker worker(csr, aux, radius, programs, root);
    for (NodeId center : merged_centers) {
      worker.Visit(center, accept);
      if (running == 0) break;
    }
    worker.MergeStats();
    return;
  }

  // Sharded: contiguous center ranges, one worker each, results through
  // one bounded ring to this thread, which alone calls accept.
  const size_t per_shard = (merged_centers.size() + shards - 1) / shards;
  std::vector<std::optional<BallWorker>> workers(shards);
  BoundedQueue<std::pair<size_t, PerfectSubgraph>> queue(
      shards * kQueueDepthPerWorker);
  std::atomic<size_t> producing{shards};
  {
    ThreadPool pool(shards);
    for (size_t s = 0; s < shards; ++s) {
      pool.Submit([&, s] {
        BallWorker& worker = workers[s].emplace(csr, aux, radius, programs,
                                                root);
        const size_t end =
            std::min(merged_centers.size(), (s + 1) * per_shard);
        if (end < merged_centers.size()) {
          worker.SetCenterEnd(merged_centers[end]);
        }
        bool open = true;
        for (size_t i = s * per_shard;
             i < end && open && !queue.token().IsCancelled(); ++i) {
          worker.Visit(merged_centers[i],
                       [&](size_t p, PerfectSubgraph&& pg) {
                         open = open && queue.Push({p, std::move(pg)});
                       });
        }
        // Last producer out closes the stream so the drain ends.
        if (producing.fetch_sub(1) == 1) queue.Close();
      });
    }
    while (std::optional<std::pair<size_t, PerfectSubgraph>> item =
               queue.Pop()) {
      accept(item->first, std::move(item->second));
      if (running == 0) {
        queue.Cancel();
        break;
      }
    }
    pool.Wait();
  }
  for (const std::optional<BallWorker>& worker : workers) {
    worker->MergeStats();
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
    BallProgram* const programs[] = {program};
    RunBallLoop(*csr, aux, radius, *program->centers, programs, threads,
                timer);
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
