// adhoc_cold: one closed-loop client on one fixed Amazon-like graph, each
// request a pattern the engine has never seen (PrepareCached + Match,
// Serial kStrongPlus, default caches). This is the paper's cold path —
// prepare, global dual filter, aux build, ball loop — where every cache
// but the CSR snapshot misses, so filter and ball-building work shows and
// cache wins cannot.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_set>

#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "matching/strong_simulation.h"
#include "quality/workloads.h"
#include "serving/load_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The graph is the same for every seed; the seed picks the patterns. It is
// kept small (its CSR fits a core's L2), because the memory-bound cold
// path moved 10-30% with neighbours' cache traffic at |V| = 20000-100000.
// Its size and 30 labels set a request's cost so that a 25 s run
// completes 5000-7500 requests, inside the 1000-9999 range where the tail
// step is p99 with 50-75 samples beyond it. At 5000 nodes a fast run
// completed 10000 and its tail flipped to p99.9.
constexpr uint32_t kGraphNodes = 7000;
constexpr uint32_t kGraphLabels = 30;
constexpr uint64_t kGraphSeed = 20111;
constexpr uint32_t kPatternNodes = 6;
/// Radius-4/5 balls cover most of a scale-free graph: one such pattern
/// costs up to ~2 s, and a run's throughput and tail then depend on how
/// many of them its seed drew. Diameter <= 3 keeps single requests within
/// ~30 ms while ball building stays the largest stage.
constexpr uint32_t kMaxDiameter = 3;
/// Warm-up patterns and the write and batch probes' inputs come from a
/// fixed seed, so set-up and the probes do the same work in every run;
/// --seed picks the timed requests.
constexpr uint64_t kFixedSeed = 777;
/// Untimed first writes and batches of each probe (cold code and heap).
constexpr size_t kProbeWarmup = 4;
/// One probe step (a write and a batch) per this many seconds of reading.
constexpr double kProbeEvery = 0.25;
constexpr size_t kWarmupRequests = 16;
/// More fresh patterns than the timed phase can consume (twice the most
/// a run completes), so no request ever repeats one.
constexpr size_t kRequestCap = 15000;
constexpr size_t kAuditSample = 48;
/// Probe sizes: a 2-edit write (~17 ms) and a batch of 2 (~20 ms). With
/// 8 edits and batches of 4 (~50 and ~80 ms) the probes took a third of
/// a run and moved more between runs than the reads did.
constexpr size_t kBatchSize = 2;
constexpr size_t kEditsPerWrite = 2;
constexpr int kSetupReps = 5;

gpm::MatchRequest ReadRequest() {
  gpm::MatchRequest request;
  request.algo = gpm::Algo::kStrongPlus;
  request.policy = gpm::ExecPolicy::Serial();
  return request;
}

struct State {
  gpm::Graph g;
  gpm::Engine engine;
  std::vector<gpm::Graph> requests;
};

gpm::Graph MakeGraph() {
  return gpm::MakeDataset(gpm::DatasetKind::kAmazonLike, kGraphNodes,
                          kGraphSeed, 1.2, kGraphLabels);
}

std::unique_ptr<State> Setup(uint64_t seed) {
  auto s = std::make_unique<State>();
  s->g = MakeGraph();
  std::unordered_set<uint64_t> seen;
  gpm::Rng fixed_rng(kFixedSeed);
  const auto warmup = FreshPatterns(s->g, kPatternNodes, kMaxDiameter,
                                    kWarmupRequests, &fixed_rng, &seen);
  gpm::Rng rng(seed);
  s->requests = FreshPatterns(s->g, kPatternNodes, kMaxDiameter, kRequestCap,
                              &rng, &seen);
  // Warm-up fills the CSR snapshot cache and the prepared-query cache's
  // steady state; its patterns never recur.
  for (const gpm::Graph& p : warmup) {
    auto pq = s->engine.PrepareCached(p);
    if (!pq.ok()) return nullptr;
    (void)s->engine.Match(**pq, s->g, ReadRequest());
  }
  return s;
}

/// Re-matches a seeded sample of served requests on a cache-less engine.
uint64_t Audit(const State& s, const std::vector<Served>& served,
               uint64_t seed) {
  gpm::Rng rng(seed ^ 0xA0D17ULL);
  const gpm::Engine reference = CachelessEngine();
  uint64_t mismatches = 0;
  for (uint64_t i : rng.SampleWithoutReplacement(served.size(), kAuditSample)) {
    if (!served[i].ok) continue;
    auto truth = reference.Match(s.requests[i], s.g, ReadRequest());
    if (!truth.ok() ||
        gpm::serving::ResponseContentHash(*truth) != served[i].hash) {
      ++mismatches;
    }
  }
  return mismatches;
}

void PrintMix(const std::vector<Served>& served) {
  size_t counts[5] = {};
  for (const Served& s : served) ++counts[static_cast<int>(s.provenance)];
  std::printf("provenance:");
  for (int p = 0; p < 5; ++p) {
    std::printf(" %s=%zu", ProvenanceName(static_cast<Provenance>(p)),
                counts[p]);
  }
  std::printf("\n");
}

/// The probes' inputs (README.md), from the fixed seed: a 3-node standing
/// query for the writes (a 6-node diameter-3 one made a write cost ~1 s)
/// and fresh patterns for `steps` batches of kBatchSize.
std::unique_ptr<ProbeRunner> MakeProbes(size_t steps) {
  const gpm::Engine engine;
  ProbeRunner::Config config;
  config.graph = MakeGraph();
  gpm::Rng rng(kFixedSeed + 1);
  std::unordered_set<uint64_t> seen;
  const auto standing = FreshPatterns(config.graph, 3, 2, 1, &rng, &seen);
  if (!standing.empty()) {
    auto pq = engine.PrepareCached(standing.front());
    if (pq.ok()) config.standing = *pq;
  }
  for (const gpm::Graph& p :
       FreshPatterns(config.graph, kPatternNodes, kMaxDiameter,
                     steps * kBatchSize, &rng, &seen)) {
    auto pq = engine.PrepareCached(p);
    if (pq.ok()) config.batch_queries.push_back(*pq);
  }
  config.batch_size = kBatchSize;
  config.request = ReadRequest();
  config.reference_request = ReadRequest();
  config.edits_per_write = kEditsPerWrite;
  config.seed = kFixedSeed;
  return std::make_unique<ProbeRunner>(engine, std::move(config));
}

/// The traced pass: a fresh set-up replays the untraced run's requests in
/// the same order (so every cache sees the same history), recording spans
/// around the real PrepareCached and Match calls and then around replays
/// of the layer calls Match made — the global dual filter, the aux build,
/// membership BFS over the aux centers, and the ball loop given all of
/// them. Stops after `seconds` or at the end of the untraced run's list.
Outcome TracedPass(const RunOptions& options,
                   const std::vector<Served>& base) {
  Outcome out;
  auto s = Setup(options.seed);
  SpanRecorder rec;
  std::vector<double> csr_ms;
  gpm::CsrGraph csr;
  for (int i = 0; i < kSetupReps; ++i) {
    csr_ms.push_back(TimedSpan(&rec, "graph.csr_build", -1, 0, [&] {
      csr = gpm::CsrGraph::FromGraph(s->g);
    }));
  }
  const gpm::EngineCacheStats before = s->engine.cache_stats();
  std::vector<double> prepare_ms, match_ms, filter_ms, aux_ms, build_ms,
      loop_ms, refine_ms, emit_ms, other_ms, top_ms, real_ms, untraced_ms;
  double stats_build_ms = 0, survivors = 0, centers = 0, index_skips = 0,
         ball_nodes = 0, balls = 0, considered = 0, useful = 0, dups = 0;
  uint64_t replay_mismatches = 0;
  const double start = NowSeconds();
  for (size_t n = 0; n < base.size() && NowSeconds() - start < options.seconds;
       ++n) {
    if (!base[n].ok) continue;
    SpanRecorder::Scope request(&rec, "request", -1, n);
    const int64_t parent = request.index();
    gpm::Result<std::shared_ptr<const gpm::PreparedQuery>> pq =
        gpm::Status::Internal("unset");
    const double prep = TimedSpan(&rec, "api.prepare", parent, n, [&] {
      pq = s->engine.PrepareCached(s->requests[n]);
    });
    gpm::Result<gpm::MatchResponse> response = gpm::Status::Internal("unset");
    const double match = TimedSpan(&rec, "api.match", parent, n, [&] {
      if (pq.ok()) response = s->engine.Match(**pq, s->g, ReadRequest());
    });
    if (!pq.ok() || !response.ok()) {
      ++out.failed;
      continue;
    }
    const gpm::PreparedQuery& q = **pq;
    gpm::Result<gpm::DualFilterResult> filter = gpm::Status::Internal("unset");
    const double filter_t = TimedSpan(&rec, "matching.filter", parent, n, [&] {
      filter = gpm::ComputeDualFilter(q.pattern(), s->g, true, &q.prep());
    });
    if (!filter.ok()) {
      ++out.failed;
      continue;
    }
    gpm::AuxGraphResult aux;
    double aux_t = 0, build_t = 0;
    if (!filter->proven_empty) {
      aux_t = TimedSpan(&rec, "matching.aux", parent, n, [&] {
        aux = gpm::BuildAuxGraph(csr, *filter, q.diameter());
      });
      build_t = TimedSpan(&rec, "matching.ball_build", parent, n, [&] {
        gpm::AuxBallBuilder builder(csr, aux);
        gpm::Ball ball;
        for (gpm::NodeId c : aux.centers) {
          builder.Build(c, q.diameter(), &ball);
          ball_nodes += ball.to_global.size();
        }
      });
      balls += aux.centers.size();
      survivors += filter->centers.size();
      index_skips += aux.centers_skipped_index;
    }
    gpm::MatchStats stats;
    gpm::MatchResponse replay;
    const double loop_start = rec.NowMs();
    int64_t loop_span = -1;
    const double loop_t = [&] {
      SpanRecorder::Scope span(&rec, "matching.ball_loop", parent, n);
      loop_span = span.index();
      const auto t0 = NowSeconds();
      auto subgraphs = gpm::MatchStrong(
          q.pattern(), s->g, gpm::MatchPlusOptions(), &stats, &q.prep(),
          &*filter, &csr, filter->proven_empty ? nullptr : &aux);
      if (subgraphs.ok()) {
        replay.subgraphs = std::move(*subgraphs);
        replay.matched = !replay.subgraphs.empty();
      }
      return (NowSeconds() - t0) * 1e3;
    }();
    // The loop's own stage split, as children placed back to back at its
    // start (they are summed stage times, not observed intervals).
    rec.Add("matching.refine", loop_start,
            loop_start + stats.refine_seconds * 1e3, loop_span, n);
    rec.Add("matching.emit", loop_start + stats.refine_seconds * 1e3,
            loop_start + (stats.refine_seconds + stats.emit_seconds) * 1e3,
            loop_span, n);
    if (gpm::serving::ResponseContentHash(replay) != base[n].hash) {
      ++replay_mismatches;
    }
    prepare_ms.push_back(prep);
    match_ms.push_back(match);
    filter_ms.push_back(filter_t);
    aux_ms.push_back(aux_t);
    build_ms.push_back(build_t);
    loop_ms.push_back(loop_t);
    refine_ms.push_back(stats.refine_seconds * 1e3);
    emit_ms.push_back(stats.emit_seconds * 1e3);
    other_ms.push_back(match - filter_t - aux_t - loop_t);
    top_ms.push_back(prep + filter_t + aux_t + loop_t);
    real_ms.push_back(prep + match);
    untraced_ms.push_back(base[n].ms);
    stats_build_ms += stats.ball_build_seconds * 1e3;
    centers += s->g.num_nodes();
    considered += stats.balls_considered;
    useful += stats.subgraphs_found + stats.duplicates_removed;
    dups += stats.duplicates_removed;
  }
  const gpm::EngineCacheStats after = s->engine.cache_stats();
  out.attempted = prepare_ms.size();
  out.failed += replay_mismatches;

  double traced_sum = 0, untraced_sum = 0;
  for (size_t i = 0; i < prepare_ms.size(); ++i) {
    traced_sum += prepare_ms[i] + match_ms[i];
    untraced_sum += untraced_ms[i];
  }
  // Coverage compares the replayed top-level spans with the real,
  // internally untraced request of the same pass, not with the untraced
  // phase: the two phases run a run length apart, and the box's drift
  // between them moved the ratio by 20%.
  const double coverage = Ratio(Median(top_ms), Median(real_ms));
  std::printf("traced: %zu requests replayed, %llu replay mismatches\n",
              prepare_ms.size(),
              static_cast<unsigned long long>(replay_mismatches));
  std::printf("tracing overhead: %.3f s traced vs %.3f s untraced over the "
              "same requests (%+.1f%%)\n",
              traced_sum / 1e3, untraced_sum / 1e3,
              100 * (Ratio(traced_sum, untraced_sum) - 1));
  std::printf("top-level spans (prepare+filter+aux+ball loop) explain %.1f%% "
              "of the median request (%.3f of %.3f ms; %.3f ms in the "
              "untraced phase)\n",
              100 * coverage, Median(top_ms), Median(real_ms),
              Median(untraced_ms));
  std::printf("ball build: %.3f ms/request replayed, %.3f ms/request by "
              "MatchStats::ball_build_seconds\n",
              Mean(build_ms),
              stats_build_ms / std::max<size_t>(1, build_ms.size()));
  for (const auto& [name, self] : TotalSelfByName(rec.spans())) {
    std::printf("  self %-24s %10.3f ms\n", name.c_str(), self);
  }
  if (!rec.WriteJson(options.spans_path)) {
    out.error = "could not write " + options.spans_path;
    return out;
  }
  std::printf("spans: %zu written to %s\n", rec.spans().size(),
              options.spans_path.c_str());

  out.Add("api.prepare_ms", Mean(prepare_ms), "ms");
  out.Add("api.dispatch_other_ms", Mean(other_ms), "ms");
  out.Add("api.result_hit_ratio", HitRatio(before.results, after.results),
          "ratio");
  out.Add("api.filter_hit_ratio", HitRatio(before.filter, after.filter),
          "ratio");
  out.Add("api.csr_hit_ratio", HitRatio(before.csr, after.csr), "ratio");
  out.Add("api.aux_hit_ratio", HitRatio(before.aux, after.aux), "ratio");
  out.Add("api.equivalent_serves",
          static_cast<double>(after.equivalent_result_hits -
                              before.equivalent_result_hits),
          "count");
  out.Add("api.containment_seeds",
          static_cast<double>(after.containment_filter_seeds -
                              before.containment_filter_seeds),
          "count");
  out.Add("graph.csr_build_ms", Median(csr_ms), "ms");
  out.Add("matching.filter_ms", Mean(filter_ms), "ms");
  out.Add("matching.filter_survivor_ratio", Ratio(survivors, centers),
          "ratio");
  out.Add("matching.aux_ms", Mean(aux_ms), "ms");
  out.Add("matching.index_skip_ratio", Ratio(index_skips, survivors), "ratio");
  out.Add("matching.ball_build_ms", Mean(build_ms), "ms");
  out.Add("matching.ball_nodes_mean", Ratio(ball_nodes, balls), "count");
  out.Add("matching.ball_loop_ms", Mean(loop_ms), "ms");
  out.Add("matching.refine_ms", Mean(refine_ms), "ms");
  out.Add("matching.emit_ms", Mean(emit_ms), "ms");
  out.Add("matching.useful_ball_ratio", Ratio(useful, considered), "ratio");
  out.Add("matching.dup_ratio", Ratio(dups, useful), "ratio");
  out.Add("trace.overhead_ratio", Ratio(traced_sum, untraced_sum) - 1,
          "ratio");
  out.Add("trace.top_level_coverage", coverage, "ratio");
  return out;
}

}  // namespace

Outcome RunAdhocCold(const RunOptions& options) {
  Outcome out;
  // The probes are built first, so every run starts them from the same
  // heap; their warm-up steps run before the timed phase.
  std::unique_ptr<ProbeRunner> probes;
  if (!options.trace) {
    probes = MakeProbes(kProbeWarmup +
                        static_cast<size_t>(options.seconds / kProbeEvery) + 2);
    if (!probes->ok()) {
      out.error = "adhoc_cold: could not build the write and batch probes";
      return out;
    }
    for (size_t i = 0; i < kProbeWarmup; ++i) probes->Step();
  }
  std::vector<double> setup_s;
  auto s = RepeatSetup(options.trace ? 1 : kSetupReps, &setup_s,
                       [&] { return Setup(options.seed); });
  if (s == nullptr || s->requests.size() < kRequestCap / 2) {
    out.error = "adhoc_cold: could not extract enough fresh patterns";
    return out;
  }
  std::printf("adhoc_cold: |V|=%zu |E|=%zu, %u-node patterns, %zu fresh "
              "requests listed, threads used: 1 client\n",
              s->g.num_nodes(), s->g.num_edges(), kPatternNodes,
              s->requests.size());
  double wall = 0;
  const auto served = ClosedLoop(
      s->requests.size(), options.seconds, &wall,
      [&](size_t i) -> gpm::Result<gpm::MatchResponse> {
        auto pq = s->engine.PrepareCached(s->requests[i]);
        if (!pq.ok()) return pq.status();
        return s->engine.Match(**pq, s->g, ReadRequest());
      },
      probes ? std::function<void()>([&] { probes->Step(); })
             : std::function<void()>(),
      kProbeEvery);
  PrintMix(served);
  const uint64_t mismatches = Audit(*s, served, options.seed);
  out.attempted = served.size();
  for (const Served& one : served) out.failed += one.ok ? 0 : 1;
  out.failed += mismatches;
  std::printf("correctness: %zu-request cache-less audit, %llu mismatches\n",
              std::min(kAuditSample, served.size()),
              static_cast<unsigned long long>(mismatches));

  if (options.trace) {
    Outcome traced = TracedPass(options, served);
    traced.attempted += out.attempted;
    traced.failed += out.failed;
    traced.correct = traced.failed == 0;
    return traced;
  }

  std::vector<double> latencies;
  for (const Served& one : served) {
    if (one.ok) latencies.push_back(one.ms);
  }
  const auto tail = SupportedTail(latencies);
  const ProbeRunner::Samples probe = probes->Finish(kProbeWarmup);
  out.attempted += probe.attempted;
  out.failed += probe.failed;
  out.correct = out.failed == 0;

  std::printf("reads: %zu in %.3f s; tail p%.1f over %zu samples (%zu "
              "beyond)\n",
              latencies.size(), wall, tail ? tail->percentile : 0,
              tail ? tail->samples : 0, tail ? tail->beyond : 0);
  std::printf("setup reps (s):");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");
  out.Add("latency_p50_ms", Median(latencies), "ms");
  out.Add("latency_tail_ms", tail ? tail->value : 0, "ms");
  out.Add("throughput_qps", latencies.size() / wall, "1/s");
  out.Add("write_p50_ms", Median(probe.write_ms), "ms");
  out.Add("batch_p50_ms", Median(probe.batch_ms), "ms");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return out;
}

}  // namespace perfbench
