// Executor scaling of regex-strong simulation (the §6 extension at full
// executor parity): the weighted-radius ball loop across threads and
// simulated sites, plus streaming time-to-first-result — the regex
// counterpart of bench/parallel_scaling + bench/distributed_scaling.
//
// The per-ball regex pipeline (the dual fixpoint on the ball, one Pre/Post
// set image per pattern edge and round, then one image per matched node
// for the virtual edges) is where the work lives, so the
// embarrassingly-parallel center decomposition should scale near the
// plain Match executor; SHAPE-CHECK asserts >= 1.5x at 4 threads.
//
// Emits BENCH_regex_scaling.json for tools/bench_trend.py; the committed
// snapshot under bench_baselines/regex_scaling/ is the CI gate.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "extensions/regex_strong.h"
#include "graph/generator.h"
#include "quality/table_printer.h"

int main() {
  using namespace gpm;
  const BenchScale scale = BenchScale::FromEnv();
  bench::PrintHeader("Regex scaling",
                     "regex-strong across threads, sites, and streaming",
                     scale);

  const uint32_t n = scale.Pick(1200, 20000);
  const Graph g = MakeDataset(DatasetKind::kAmazonLike, n, /*seed=*/71, 1.2,
                              ScaledLabelCount(n));
  Rng rng(91031);
  auto extracted = ExtractPattern(g, /*nq=*/4, &rng);
  if (!extracted.ok()) {
    std::printf("no pattern extracted\n");
    return 1;
  }
  RegexQuery query(std::move(*extracted));
  // Two-hop wildcard constraints on every pattern edge: the weighted
  // radius doubles, balls grow, and the per-ball regex work dominates.
  const Graph& pattern = query.pattern();
  for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
    for (NodeId v : pattern.OutNeighbors(u)) {
      (void)query.SetConstraint(u, v, {RegexAtom{kAnyEdgeLabel, 1, 2}});
    }
  }

  const Engine engine = bench::MeasurementEngine();
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::printf("error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("amazon-like |V| = %s, |E| = %s, |Vq| = %zu, all edges "
              "*^{1..2}, weighted radius %u\n\n",
              WithThousandsSeparators(g.num_nodes()).c_str(),
              WithThousandsSeparators(g.num_edges()).c_str(),
              pattern.num_nodes(), prepared->regex_radius());

  bench::JsonReport report("regex_scaling");
  MatchRequest request;
  request.algo = Algo::kRegexStrong;

  auto baseline = engine.Match(*prepared, g, request);
  if (!baseline.ok()) {
    std::printf("error: %s\n", baseline.status().ToString().c_str());
    return 1;
  }

  // -- threads: batch ------------------------------------------------------
  TablePrinter table({"threads", "time(s)", "speedup", "results", "== seq"});
  double t1 = 0, t4 = 0, t8 = 0;
  bool all_equal = true;
  size_t balls_skipped_filter = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    request.policy = ExecPolicy::Parallel(threads);
    auto result = engine.Match(*prepared, g, request);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const MatchStats& stats = result->stats;
    if (threads == 1) t1 = stats.total_seconds;
    if (threads == 4) t4 = stats.total_seconds;
    if (threads == 8) t8 = stats.total_seconds;
    balls_skipped_filter = stats.balls_skipped_filter;
    const bool equal = result->subgraphs.size() == baseline->subgraphs.size();
    all_equal = all_equal && equal;
    report.Add("threads=" + std::to_string(threads), stats.total_seconds,
               stats);
    table.AddRow({std::to_string(threads), FormatDouble(stats.total_seconds, 3),
                  t1 > 0 ? FormatDouble(t1 / stats.total_seconds, 2) + "x"
                         : "-",
                  std::to_string(result->subgraphs.size()),
                  equal ? "yes" : "NO"});
  }
  std::printf("%s", table.Render().c_str());

  // -- threads: streaming --------------------------------------------------
  std::printf("\nstreaming (SubgraphSink) delivery latency:\n");
  TablePrinter stream_table(
      {"threads", "total(s)", "first result(s)", "delivered"});
  bool first_before_total = true;
  for (size_t threads : {1u, 4u}) {
    request.policy = ExecPolicy::Parallel(threads);
    auto result = engine.Match(*prepared, g, request,
                               [](PerfectSubgraph&&) { return true; });
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const MatchStats& stats = result->stats;
    first_before_total =
        first_before_total &&
        (result->subgraphs_delivered == 0 ||
         stats.seconds_to_first_subgraph < stats.total_seconds);
    report.Add("streaming/threads=" + std::to_string(threads),
               stats.total_seconds, stats);
    stream_table.AddRow({std::to_string(threads),
                         FormatDouble(stats.total_seconds, 3),
                         FormatDouble(stats.seconds_to_first_subgraph, 4),
                         std::to_string(result->subgraphs_delivered)});
  }
  std::printf("%s", stream_table.Render().c_str());

  // -- distributed sites ---------------------------------------------------
  std::printf("\ndistributed (§4.3 BSP over simulated sites):\n");
  TablePrinter site_table({"sites", "time(s)", "results", "== seq",
                           "MB shipped", "first result(s)"});
  bool distributed_equal = true;
  for (uint32_t sites : {2u, 4u}) {
    DistributedOptions options;
    options.num_sites = sites;
    request.policy = ExecPolicy::Distributed(options);
    auto result = engine.Match(*prepared, g, request);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const bool equal = result->subgraphs.size() == baseline->subgraphs.size();
    distributed_equal = distributed_equal && equal;
    report.Add("sites=" + std::to_string(sites), result->seconds);

    std::vector<PerfectSubgraph> streamed;
    auto streaming = engine.Match(*prepared, g, request,
                                  [&streamed](PerfectSubgraph&& pg) {
                                    streamed.push_back(std::move(pg));
                                    return true;
                                  });
    if (!streaming.ok()) {
      std::printf("error: %s\n", streaming.status().ToString().c_str());
      return 1;
    }
    first_before_total =
        first_before_total &&
        (streaming->subgraphs_delivered == 0 ||
         streaming->distributed.seconds_to_first_result <
             streaming->distributed.seconds);
    report.Add("streaming/sites=" + std::to_string(sites),
               streaming->distributed.seconds);
    site_table.AddRow(
        {std::to_string(sites), FormatDouble(result->seconds, 3),
         std::to_string(result->subgraphs.size()), equal ? "yes" : "NO",
         FormatDouble(static_cast<double>(
                          result->distributed.bytes_total) /
                          (1024.0 * 1024.0),
                      2),
         FormatDouble(streaming->distributed.seconds_to_first_result, 4)});
  }
  std::printf("%s\n", site_table.Render().c_str());

  // -- bounded radius: the landmark center index ---------------------------
  // radius_override below the weighted radius is where the aux graph's
  // landmark index fires for regex runs: a center that cannot reach a
  // regex-filter survivor of every pattern node within the bounded radius
  // skips its ball outright (balls_skipped_index). At the default
  // weighted radius the index provably never fires.
  request.policy = ExecPolicy::Serial();
  request.options.radius_override = 1;
  auto bounded = engine.Match(*prepared, g, request);
  if (!bounded.ok()) {
    std::printf("error: %s\n", bounded.status().ToString().c_str());
    return 1;
  }
  request.options.radius_override = 0;
  report.Add("bounded_radius", bounded->stats.total_seconds, bounded->stats);
  std::printf("bounded radius 1: %zu results, %zu centers skipped by the "
              "landmark index, %zu by the filter\n",
              bounded->subgraphs.size(),
              bounded->stats.balls_skipped_index,
              bounded->stats.balls_skipped_filter);

  const double speedup4 = t4 > 0 ? t1 / t4 : 0;
  const double speedup8 = t8 > 0 ? t1 / t8 : 0;
  std::printf("4-thread speedup: %.2fx, 8-thread speedup: %.2fx\n", speedup4,
              speedup8);
  bench::ShapeCheck(all_equal && distributed_equal,
                    "every executor returns the same regex Θ");
  bench::ShapeCheck(first_before_total,
                    "streaming delivers the first subgraph before the run "
                    "completes");
  bench::ShapeCheck(balls_skipped_filter > 0,
                    "the global regex filter prunes centers "
                    "(balls_skipped_filter > 0)");
  bench::ShapeCheck(bounded->stats.balls_skipped_index > 0,
                    "the landmark index skips centers at bounded radius "
                    "(balls_skipped_index > 0)");
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    bench::ShapeCheck(speedup4 > 1.5,
                      "parallel regex-strong beats serial by > 1.5x at 4 "
                      "threads");
  } else {
    std::printf(
        "  note: host has %u hardware thread(s); the 4-thread speedup\n"
        "  gate needs >= 4 (results-identity still verified).\n",
        cores);
  }
  if (cores >= 8) {
    bench::ShapeCheck(speedup8 >= 4.0,
                      "parallel regex-strong beats serial by >= 4x at 8 "
                      "threads");
  } else {
    std::printf(
        "  note: host has %u hardware thread(s); the 8-thread speedup\n"
        "  gate needs >= 8 (results-identity still verified).\n",
        cores);
  }
  return 0;
}
