// regex_par: one closed-loop client issuing fresh kRegexStrong queries
// under ExecPolicy::Parallel(3) on a small Amazon-like graph. The per-ball
// regex fixpoint dominates here, and the parallel executor with its MPSC
// ring runs only in this workload.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_set>

#include "extensions/regex_strong.h"
#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "quality/workloads.h"
#include "serving/load_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Sized so a 25 s run completes 500-700 requests (~40 ms each), in the
/// middle of the 200-999 range where the tail step is p95. At 600 nodes a
/// run completed 920-1130 and the tail flipped between p95 and p99 from
/// run to run.
constexpr uint32_t kGraphNodes = 800;
constexpr uint64_t kGraphSeed = 40111;
constexpr uint32_t kPatternNodes = 4;
constexpr uint32_t kMaxDiameter = 3;
constexpr size_t kThreads = 3;
constexpr size_t kWarmupRequests = 8;
/// Warm-up queries and the write and batch probes' inputs come from a
/// fixed seed; --seed picks the timed requests.
constexpr uint64_t kFixedSeed = 777;
/// Untimed first writes and batches of each probe (cold code and heap).
constexpr size_t kProbeWarmup = 4;
/// One probe step (a write and a batch, ~85 ms together) per this many
/// seconds of reading.
constexpr double kProbeEvery = 0.5;
constexpr size_t kRequestCap = 3000;
constexpr size_t kAuditSample = 24;
constexpr size_t kBatchSize = 2;
constexpr size_t kEditsPerWrite = 8;
constexpr int kSetupReps = 5;

gpm::MatchRequest ReadRequest(size_t threads) {
  gpm::MatchRequest request;
  request.algo = gpm::Algo::kRegexStrong;
  request.policy = threads > 1 ? gpm::ExecPolicy::Parallel(threads)
                               : gpm::ExecPolicy::Serial();
  return request;
}

/// A regex query over an extracted pattern: its first edge becomes a
/// one-to-two-hop wildcard path, the rest keep one-hop semantics.
gpm::RegexQuery MakeRegexQuery(gpm::Graph pattern) {
  gpm::RegexQuery query(std::move(pattern));
  const gpm::Graph& p = query.pattern();
  for (gpm::NodeId u = 0; u < p.num_nodes(); ++u) {
    for (gpm::NodeId v : p.OutNeighbors(u)) {
      (void)query.SetConstraint(u, v,
                                {gpm::RegexAtom{gpm::kAnyEdgeLabel, 1, 2}});
      return query;
    }
  }
  return query;
}

struct State {
  gpm::Graph g;
  gpm::Engine engine;
  std::vector<gpm::RegexQuery> requests;
};

gpm::Graph MakeGraph() {
  return gpm::MakeDataset(gpm::DatasetKind::kAmazonLike, kGraphNodes,
                          kGraphSeed, 1.2, gpm::ScaledLabelCount(kGraphNodes));
}

std::vector<gpm::RegexQuery> FreshRegexQueries(
    const gpm::Graph& g, size_t count, gpm::Rng* rng,
    std::unordered_set<uint64_t>* seen) {
  std::vector<gpm::RegexQuery> out;
  for (gpm::Graph& p :
       FreshPatterns(g, kPatternNodes, kMaxDiameter, count, rng, seen)) {
    out.push_back(MakeRegexQuery(std::move(p)));
  }
  return out;
}

std::unique_ptr<State> Setup(uint64_t seed) {
  auto s = std::make_unique<State>();
  s->g = MakeGraph();
  std::unordered_set<uint64_t> seen;
  gpm::Rng fixed_rng(kFixedSeed);
  const auto warmup =
      FreshRegexQueries(s->g, kWarmupRequests, &fixed_rng, &seen);
  gpm::Rng rng(seed);
  s->requests = FreshRegexQueries(s->g, kRequestCap, &rng, &seen);
  for (const gpm::RegexQuery& q : warmup) {
    auto pq = s->engine.Prepare(q);
    if (!pq.ok()) return nullptr;
    (void)s->engine.Match(*pq, s->g, ReadRequest(kThreads));
  }
  return s;
}

/// Compares a seeded sample of Parallel answers with Serial ones computed
/// on a cache-less engine.
uint64_t Audit(const State& s, const std::vector<Served>& served,
               uint64_t seed) {
  gpm::Rng rng(seed ^ 0x5E71A1ULL);
  const gpm::Engine reference = CachelessEngine();
  uint64_t mismatches = 0;
  for (uint64_t i : rng.SampleWithoutReplacement(served.size(), kAuditSample)) {
    if (!served[i].ok) continue;
    auto pq = reference.Prepare(s.requests[i]);
    auto truth = pq.ok() ? reference.Match(*pq, s.g, ReadRequest(1))
                         : gpm::Result<gpm::MatchResponse>(pq.status());
    if (!truth.ok() ||
        gpm::serving::ResponseContentHash(*truth) != served[i].hash) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The probes' inputs (README.md), from the fixed seed. Regex queries
/// have no incremental sessions, so the writes maintain a plain 3-node
/// standing query; the batches are 2 fresh regex queries each, under
/// Parallel(3), checked against Serial.
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
  for (const gpm::RegexQuery& q :
       FreshRegexQueries(config.graph, steps * kBatchSize, &rng, &seen)) {
    auto pq = engine.Prepare(q);
    if (pq.ok()) {
      config.batch_queries.push_back(
          std::make_shared<const gpm::PreparedQuery>(std::move(*pq)));
    }
  }
  config.batch_size = kBatchSize;
  config.request = ReadRequest(kThreads);
  config.reference_request = ReadRequest(1);
  config.edits_per_write = kEditsPerWrite;
  config.seed = kFixedSeed;
  return std::make_unique<ProbeRunner>(engine, std::move(config));
}

/// The traced pass: a fresh set-up replays the untraced run's requests in
/// order, with spans around the real Prepare and Match calls and around
/// replays of the layer calls Match made — the global regex filter, the
/// regex aux build, and the ball loop at 3 threads — plus the same ball
/// loop serially, for the parallel efficiency. Stops after `seconds` or at
/// the end of the untraced run's list.
Outcome TracedPass(const RunOptions& options,
                   const std::vector<Served>& base) {
  Outcome out;
  auto s = Setup(options.seed);
  SpanRecorder rec;
  const gpm::CsrGraph csr = gpm::CsrGraph::FromGraph(s->g);
  const gpm::EngineCacheStats before = s->engine.cache_stats();
  std::vector<double> prepare_ms, match_ms, filter_ms, aux_ms, parallel_ms,
      serial_ms, other_ms, top_ms, real_ms, untraced_ms;
  double parallel_refine = 0, serial_refine = 0;
  uint64_t replay_mismatches = 0;
  const double start = NowSeconds();
  for (size_t n = 0; n < base.size() && NowSeconds() - start < options.seconds;
       ++n) {
    if (!base[n].ok) continue;
    SpanRecorder::Scope request(&rec, "request", -1, n);
    const int64_t parent = request.index();
    gpm::Result<gpm::PreparedQuery> pq = gpm::Status::Internal("unset");
    const double prep = TimedSpan(&rec, "api.prepare", parent, n, [&] {
      pq = s->engine.Prepare(s->requests[n]);
    });
    gpm::Result<gpm::MatchResponse> response = gpm::Status::Internal("unset");
    const double match = TimedSpan(&rec, "api.match", parent, n, [&] {
      if (pq.ok()) response = s->engine.Match(*pq, s->g, ReadRequest(kThreads));
    });
    if (!pq.ok() || !response.ok()) {
      ++out.failed;
      continue;
    }
    const gpm::RegexQuery& query = pq->regex();
    const uint32_t radius = pq->regex_radius();
    gpm::Result<gpm::DualFilterResult> filter = gpm::Status::Internal("unset");
    const double filter_t =
        TimedSpan(&rec, "extensions.regex_filter", parent, n,
                  [&] { filter = gpm::ComputeRegexFilter(query, s->g); });
    if (!filter.ok()) {
      ++out.failed;
      continue;
    }
    gpm::AuxGraphResult aux;
    double aux_t = 0;
    if (!filter->proven_empty) {
      aux_t = TimedSpan(&rec, "extensions.regex_aux", parent, n, [&] {
        aux = gpm::BuildRegexAuxGraph(query, csr, *filter, radius);
      });
    }
    const gpm::AuxGraphResult* aux_ptr = filter->proven_empty ? nullptr : &aux;
    gpm::MatchStats parallel_stats, serial_stats;
    gpm::MatchResponse replay;
    const double parallel_t =
        TimedSpan(&rec, "extensions.regex_parallel", parent, n, [&] {
          auto subgraphs = gpm::MatchStrongRegexParallel(
              query, s->g, radius, kThreads, &parallel_stats, &*filter, &csr,
              aux_ptr);
          if (subgraphs.ok()) {
            replay.subgraphs = std::move(*subgraphs);
            replay.matched = !replay.subgraphs.empty();
          }
        });
    const double serial_t =
        TimedSpan(&rec, "extensions.regex_serial", parent, n, [&] {
          (void)gpm::MatchStrongRegex(query, s->g, radius, &serial_stats,
                                      &*filter, &csr, aux_ptr);
        });
    if (gpm::serving::ResponseContentHash(replay) != base[n].hash) {
      ++replay_mismatches;
    }
    prepare_ms.push_back(prep);
    match_ms.push_back(match);
    filter_ms.push_back(filter_t);
    aux_ms.push_back(aux_t);
    parallel_ms.push_back(parallel_t);
    serial_ms.push_back(serial_t);
    other_ms.push_back(match - filter_t - aux_t - parallel_t);
    top_ms.push_back(prep + filter_t + aux_t + parallel_t);
    real_ms.push_back(prep + match);
    untraced_ms.push_back(base[n].ms);
    parallel_refine += parallel_stats.refine_seconds;
    serial_refine += serial_stats.refine_seconds;
  }
  const gpm::EngineCacheStats after = s->engine.cache_stats();
  out.attempted = prepare_ms.size();
  out.failed += replay_mismatches;

  double traced_sum = 0, untraced_sum = 0, serial_sum = 0, parallel_sum = 0;
  for (size_t i = 0; i < prepare_ms.size(); ++i) {
    traced_sum += prepare_ms[i] + match_ms[i];
    untraced_sum += untraced_ms[i];
    serial_sum += serial_ms[i];
    parallel_sum += parallel_ms[i];
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
  std::printf("ball loop: serial %.3f s vs %zu threads %.3f s; summed refine "
              "%.3f s parallel vs %.3f s serial\n",
              serial_sum / 1e3, kThreads, parallel_sum / 1e3, parallel_refine,
              serial_refine);
  for (const auto& [name, self] : TotalSelfByName(rec.spans())) {
    std::printf("  self %-28s %10.3f ms\n", name.c_str(), self);
  }
  if (!rec.WriteJson(options.spans_path)) {
    out.error = "could not write " + options.spans_path;
    return out;
  }
  std::printf("spans: %zu written to %s\n", rec.spans().size(),
              options.spans_path.c_str());

  out.Add("api.prepare_ms", Mean(prepare_ms), "ms");
  out.Add("api.dispatch_other_ms", Mean(other_ms), "ms");
  out.Add("api.filter_hit_ratio",
          HitRatio(before.regex_filter, after.regex_filter), "ratio");
  out.Add("api.csr_hit_ratio", HitRatio(before.csr, after.csr), "ratio");
  out.Add("api.aux_hit_ratio", HitRatio(before.aux, after.aux), "ratio");
  out.Add("extensions.regex_filter_ms", Mean(filter_ms), "ms");
  out.Add("extensions.regex_aux_ms", Mean(aux_ms), "ms");
  out.Add("extensions.regex_serial_ms", Mean(serial_ms), "ms");
  out.Add("extensions.regex_parallel_ms", Mean(parallel_ms), "ms");
  out.Add("extensions.parallel_efficiency",
          Ratio(serial_sum, kThreads * parallel_sum), "ratio");
  out.Add("extensions.refine_cpu_inflation",
          Ratio(parallel_refine, serial_refine), "ratio");
  out.Add("trace.overhead_ratio", Ratio(traced_sum, untraced_sum) - 1,
          "ratio");
  out.Add("trace.top_level_coverage", coverage, "ratio");
  return out;
}

}  // namespace

Outcome RunRegexPar(const RunOptions& options) {
  Outcome out;
  // The probes are built first, so every run starts them from the same
  // heap; their warm-up steps run before the timed phase.
  std::unique_ptr<ProbeRunner> probes;
  if (!options.trace) {
    probes = MakeProbes(kProbeWarmup +
                        static_cast<size_t>(options.seconds / kProbeEvery) + 2);
    if (!probes->ok()) {
      out.error = "regex_par: could not build the write and batch probes";
      return out;
    }
    for (size_t i = 0; i < kProbeWarmup; ++i) probes->Step();
  }
  std::vector<double> setup_s;
  auto s = RepeatSetup(options.trace ? 1 : kSetupReps, &setup_s,
                       [&] { return Setup(options.seed); });
  if (s == nullptr || s->requests.size() < kRequestCap / 2) {
    out.error = "regex_par: could not extract enough fresh patterns";
    return out;
  }
  std::printf("regex_par: |V|=%zu |E|=%zu, %u-node regex patterns, %zu "
              "fresh requests listed, threads used: 1 client + %zu ball "
              "workers\n",
              s->g.num_nodes(), s->g.num_edges(), kPatternNodes,
              s->requests.size(), kThreads);
  double wall = 0;
  const auto served = ClosedLoop(
      s->requests.size(), options.seconds, &wall,
      [&](size_t i) -> gpm::Result<gpm::MatchResponse> {
        auto pq = s->engine.Prepare(s->requests[i]);
        if (!pq.ok()) return pq.status();
        return s->engine.Match(*pq, s->g, ReadRequest(kThreads));
      },
      probes ? std::function<void()>([&] { probes->Step(); })
             : std::function<void()>(),
      kProbeEvery);
  const uint64_t mismatches = Audit(*s, served, options.seed);
  out.attempted = served.size();
  for (const Served& one : served) out.failed += one.ok ? 0 : 1;
  out.failed += mismatches;
  std::printf("correctness: %zu-request serial-vs-parallel audit, %llu "
              "mismatches\n",
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
