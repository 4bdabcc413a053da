// perfbench: the serving benchmark's driver binary.
//
//   perfbench --workload <adhoc_cold|serve_churn|regex_par> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints the run's environment, per-workload detail lines, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (whose spans go to --spans). Exits non-zero without a result line when
// the run cannot be carried out.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json (run.py checks the
// result line against it).
constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
    {"throughput_qps", "1/s"}, {"write_p50_ms", "ms"},
    {"batch_p50_ms", "ms"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serving.overhead_us", "us"},
    {"serving.apply_edits_ms", "ms"},
    {"serving.epoch_lag_max", "count"},
    {"serving.retired_pending_max", "count"},
    {"serving.writer_late_ms", "ms"},
    {"api.prepare_ms", "ms"},
    {"api.dispatch_other_ms", "ms"},
    {"api.result_hit_ratio", "ratio"},
    {"api.filter_hit_ratio", "ratio"},
    {"api.csr_hit_ratio", "ratio"},
    {"api.aux_hit_ratio", "ratio"},
    {"api.equivalent_serves", "count"},
    {"api.containment_seeds", "count"},
    {"api.hit_p50_us", "us"},
    {"api.miss_p50_ms", "ms"},
    {"api.batch_ms", "ms"},
    {"api.batch_shared_ratio", "ratio"},
    {"api.batch_vs_singles", "ratio"},
    {"api.incremental_apply_ms", "ms"},
    {"graph.csr_build_ms", "ms"},
    {"matching.filter_ms", "ms"},
    {"matching.filter_survivor_ratio", "ratio"},
    {"matching.aux_ms", "ms"},
    {"matching.index_skip_ratio", "ratio"},
    {"matching.ball_build_ms", "ms"},
    {"matching.ball_nodes_mean", "count"},
    {"matching.ball_loop_ms", "ms"},
    {"matching.refine_ms", "ms"},
    {"matching.emit_ms", "ms"},
    {"matching.useful_ball_ratio", "ratio"},
    {"matching.dup_ratio", "ratio"},
    {"extensions.regex_filter_ms", "ms"},
    {"extensions.regex_aux_ms", "ms"},
    {"extensions.regex_serial_ms", "ms"},
    {"extensions.regex_parallel_ms", "ms"},
    {"extensions.parallel_efficiency", "ratio"},
    {"extensions.refine_cpu_inflation", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.top_level_coverage", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <adhoc_cold|serve_churn|"
               "regex_par> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds <= 0) {
    return Usage();
  }
  if (options.spans_path.empty()) {
    options.spans_path = "spans_" + options.workload + ".json";
  }

  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "hardware_concurrency=%u build=%s compiler=\"%s\"\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__);
  std::fflush(stdout);

  Outcome outcome;
  if (options.workload == "adhoc_cold") {
    outcome = RunAdhocCold(options);
  } else if (options.workload == "serve_churn") {
    outcome = RunServeChurn(options);
  } else if (options.workload == "regex_par") {
    outcome = RunRegexPar(options);
  } else {
    return Usage();
  }
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", outcome.error.c_str());
    return 1;
  }

  // Emit exactly the metric set of the mode, in BENCHMARK.json order. A
  // per-layer metric the workload does not exercise is reported as 0 and
  // named here; an end-to-end metric may never be missing.
  std::map<std::string, Metric> by_name;
  for (const Metric& m : outcome.metrics) by_name[m.name] = m;
  Outcome result = outcome;
  result.metrics.clear();
  std::string not_exercised;
  const MetricSpec* specs = options.trace ? kPerLayer : kEndToEnd;
  const size_t count = options.trace ? std::size(kPerLayer)
                                     : std::size(kEndToEnd);
  for (size_t i = 0; i < count; ++i) {
    auto it = by_name.find(specs[i].name);
    if (it == by_name.end()) {
      if (!options.trace) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     specs[i].name);
        return 1;
      }
      not_exercised += std::string(" ") + specs[i].name;
      result.Add(specs[i].name, 0, specs[i].unit);
      continue;
    }
    result.Add(specs[i].name, it->second.value, specs[i].unit);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                 by_name.begin()->first.c_str());
    return 1;
  }
  if (!not_exercised.empty()) {
    std::printf("not exercised by %s (reported as 0):%s\n",
                options.workload.c_str(), not_exercised.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
