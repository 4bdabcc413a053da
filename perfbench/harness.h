// Shared machinery of the serving benchmark: request generation, the
// statistics every workload reports (medians, supported tail percentiles),
// the span recorder behind the traced run, response provenance, and the
// result line the benchmark prints last.
//
// Nothing here reaches inside src/: spans are recorded around calls into
// the engine's public functions from the benchmark's own files.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <functional>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/random.h"
#include "api/incremental_session.h"
#include "extensions/incremental.h"
#include "graph/graph.h"
#include "graph/mutable_graph.h"
#include "serving/load_driver.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics.

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Hit ratio of one engine cache between two cache_stats() snapshots.
inline double HitRatio(const gpm::CacheStats& before,
                       const gpm::CacheStats& after) {
  return Ratio(static_cast<double>(after.hits - before.hits),
               static_cast<double>(after.lookups - before.lookups));
}

/// \brief A tail latency taken at a percentile the sample supports.
struct TailPoint {
  double percentile = 0;  ///< e.g. 99.0
  size_t samples = 0;     ///< sample size it was taken from
  size_t beyond = 0;      ///< samples strictly above the reported rank
  double value = 0;       ///< the nearest-rank value at `percentile`
};

/// The highest percentile of a fixed ladder (99.9, 99, 95, 90, 50) whose
/// nearest-rank value still has at least `min_beyond` samples above it. A
/// coarse ladder keeps the chosen percentile the same across runs whose
/// sample counts differ by tens of percent (p99 holds from 1000 to 9999
/// samples). nullopt when not even the median qualifies.
std::optional<TailPoint> SupportedTail(std::vector<double> samples,
                                       size_t min_beyond = 10);

/// \brief Bounded-memory latency log for millions of reads: a log-linear
/// histogram (256 sub-buckets per octave, each < 0.4% wide) that also sums the
/// samples of each bucket, so a quantile is reported as the mean of the
/// samples in the bucket holding its rank — a measured value, not a
/// bucket bound. Memory is fixed, so a faster run does not use more.
class LatencyLog {
 public:
  LatencyLog();
  void Record(double ms);
  void Merge(const LatencyLog& other);
  size_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Nearest-rank median (rank ceil(n/2)); 0 when empty.
  double Median() const;
  /// Nearest-rank value at quantile q in (0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// The ladder tail (as SupportedTail picks it) at this log's count.
  std::optional<TailPoint> Tail(size_t min_beyond = 10) const;

 private:
  static constexpr int kSubBuckets = 256;
  static constexpr int kOctaves = 40;  // 2^-20 ms (~1 ns) .. 2^20 ms
  double ValueAtRank(size_t rank) const;  // 1-based
  std::vector<uint64_t> counts_;
  std::vector<double> sums_;
  size_t count_ = 0;
  double sum_ = 0;
};

// ---------------------------------------------------------------------------
// Request generation.

/// Zipf-popular index sequence over [0, n) with exponent `s`: the same
/// (n, s, seed, count) always yields the same sequence.
std::vector<uint32_t> ZipfSequence(uint32_t n, double s, uint64_t seed,
                                   size_t count);

/// Isomorphism-invariant identity of a pattern (canonical fingerprint,
/// falling back to the content hash when canonicalization gives up), so
/// renamed copies of one pattern collide.
uint64_t PatternIdentity(const gpm::Graph& pattern);

/// Extracts `count` connected `nq`-node patterns of diameter at most
/// `max_diameter` from `g`, none of whose PatternIdentity is in `*seen`
/// (each accepted identity is added). The draw is deterministic in `rng`'s
/// state.
std::vector<gpm::Graph> FreshPatterns(const gpm::Graph& g, uint32_t nq,
                                      uint32_t max_diameter, size_t count,
                                      gpm::Rng* rng,
                                      std::unordered_set<uint64_t>* seen);

/// Up to `count` feasible edge edits against the live adjacency: inserts
/// of absent label-0 edges and removals of present ones, no two on the
/// same (from, to). Deterministic in `rng`'s state and the graph.
std::vector<gpm::GraphEdit> SampleFeasibleEdits(const gpm::MutableGraph& data,
                                                size_t count, gpm::Rng* rng);

/// An engine with every serving cache disabled: the reference the
/// correctness nets re-match against.
gpm::Engine CachelessEngine();

/// \brief The write and batch probes of the workloads without writes or
/// batches of their own (README.md). They own their graph and engine, run
/// on fixed inputs, and are stepped between timed reads so their samples
/// span the same window as the reads. A write is one batch of feasible
/// edits through an incremental session of a standing query (the repair
/// half of GpmServer::ApplyEdits); a batch is one MatchBatch over the next
/// `batch_size` prepared queries, each item checked by Finish against a
/// lone Match on a cache-less engine.
class ProbeRunner {
 public:
  struct Config {
    gpm::Graph graph;
    /// Plain and connected (OpenIncremental's contract).
    std::shared_ptr<const gpm::PreparedQuery> standing;
    std::vector<std::shared_ptr<const gpm::PreparedQuery>> batch_queries;
    size_t batch_size = 1;
    gpm::MatchRequest request;            ///< what batch items run under
    gpm::MatchRequest reference_request;  ///< what the check runs under
    size_t edits_per_write = 8;
    uint64_t seed = 1;
  };

  /// \brief What the probes measured.
  struct Samples {
    std::vector<double> write_ms;
    std::vector<double> batch_ms;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };

  ProbeRunner(gpm::Engine engine, Config config);

  bool ok() const;
  /// One write, and one batch while batch inputs last.
  void Step();
  /// Drops each probe's first `warmup` samples, checks every batch item,
  /// and reports.
  Samples Finish(size_t warmup) const;

 private:
  gpm::Engine engine_;
  Config config_;  // owns the graph the session reads; declared before it
  std::unique_ptr<gpm::IncrementalSession> session_;
  gpm::Rng rng_;
  size_t next_ = 0;
  std::vector<double> write_ms_;
  std::vector<double> batch_ms_;
  std::vector<uint64_t> hashes_;  ///< per batch item, in batch_queries order
  uint64_t writes_ = 0;
  uint64_t write_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Provenance.

/// Which path answered a response.
enum class Provenance {
  kResultHit,        ///< exact materialized-result cache hit
  kEquivalentServe,  ///< isomorphic donor's result, renamed
  kSeededFilter,     ///< executed; filter seeded by a containing pattern
  kFilterHit,        ///< executed; dual filter served from its memo
  kCold,             ///< executed from scratch
};

/// Classifies a response from its provenance flags only. Stage times are
/// ignored on purpose: a result-cache hit carries the stats of the cold
/// run that filled the entry.
Provenance Classify(const gpm::MatchStats& stats);

/// \brief One read of a single-client closed loop.
struct Served {
  double ms = 0;
  uint64_t hash = 0;  ///< serving::ResponseContentHash of the answer
  bool ok = false;
  Provenance provenance = Provenance::kCold;
};

/// True for the two paths that answered without matching.
inline bool IsHit(Provenance p) {
  return p == Provenance::kResultHit || p == Provenance::kEquivalentServe;
}

const char* ProvenanceName(Provenance p);

// ---------------------------------------------------------------------------
// Tracing.

/// \brief One recorded span: a timed call into a layer.
struct Span {
  const char* name = "";
  double start_ms = 0;  ///< relative to the recorder's creation
  double end_ms = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for none
  uint64_t request = 0;
  uint32_t thread = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent's interval). Same order as `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// \brief Thread-safe in-memory span log, written out once at the end.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Milliseconds since the recorder was created.
  double NowMs() const;

  /// Opens a span and returns its index.
  int64_t Begin(const char* name, int64_t parent, uint64_t request,
                uint32_t thread = 0);
  void End(int64_t index);

  /// Records a finished span with explicit bounds (used for children
  /// synthesized from a call's own stage timings).
  int64_t Add(const char* name, double start_ms, double end_ms,
              int64_t parent, uint64_t request, uint32_t thread = 0);

  std::vector<Span> spans() const;

  /// Writes {"spans": [...]} with each span's self time; false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const;

  /// \brief RAII span.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t parent,
          uint64_t request, uint32_t thread = 0)
        : recorder_(recorder),
          index_(recorder ? recorder->Begin(name, parent, request, thread)
                          : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t index() const { return index_; }

   private:
    SpanRecorder* recorder_;
    int64_t index_;
  };

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Runs `fn` under a span and returns its wall time in ms.
template <typename F>
double TimedSpan(SpanRecorder* rec, const char* name, int64_t parent,
                 uint64_t request, F&& fn) {
  SpanRecorder::Scope span(rec, name, parent, request);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sum of span self times per name, for the printed layer table.
std::vector<std::pair<std::string, double>> TotalSelfByName(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Reporting.

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload hands back to main: the correctness verdict,
/// operation counts, and its metrics (end-to-end or per-layer, by mode).
struct Outcome {
  /// Non-empty when the run could not be carried out (set-up failed); no
  /// result line is printed then.
  std::string error;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// \brief Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string spans_path;
};

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Outcome& outcome);

/// Seconds on a steady clock (the benchmark's one time base).
double NowSeconds();

/// The single-client closed loop: calls serve(i) for i = 0, 1, ... below
/// `count`, each as soon as the previous one returned, until `seconds` of
/// reading pass, timing each call. `serve` returns the request's
/// Result<MatchResponse>. When `between` is set it runs between two reads
/// after every `every` seconds of reading, so probe samples span the same
/// window as the reads; its time is excluded from `*wall`, the reading
/// time.
template <typename F>
std::vector<Served> ClosedLoop(size_t count, double seconds, double* wall,
                               F&& serve,
                               const std::function<void()>& between = {},
                               double every = 0.25) {
  std::vector<Served> served;
  const double start = NowSeconds();
  double paused = 0;
  double next_pause = every;
  for (size_t i = 0; i < count && NowSeconds() - start - paused < seconds;
       ++i) {
    if (between && NowSeconds() - start - paused >= next_pause) {
      const double t = NowSeconds();
      between();
      paused += NowSeconds() - t;
      next_pause += every;
    }
    Served one;
    const double t0 = NowSeconds();
    const gpm::Result<gpm::MatchResponse> response = serve(i);
    one.ms = (NowSeconds() - t0) * 1e3;
    if (response.ok()) {
      one.ok = true;
      one.hash = gpm::serving::ResponseContentHash(*response);
      one.provenance = Classify(response->stats);
    }
    served.push_back(one);
  }
  *wall = NowSeconds() - start - paused;
  return served;
}

/// Runs `setup` `reps` times, keeping the last product and recording
/// each repetition's wall time into `*seconds`.
template <typename F>
auto RepeatSetup(int reps, std::vector<double>* seconds, F setup) {
  auto once = [&] {
    const double t0 = NowSeconds();
    auto product = setup();
    seconds->push_back(NowSeconds() - t0);
    return product;
  };
  auto product = once();
  for (int i = 1; i < reps; ++i) {
    product.reset();  // free the previous copy before building the next
    product = once();
  }
  return product;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
