#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "graph/diameter.h"
#include "graph/generator.h"
#include "matching/containment.h"

namespace perfbench {

namespace {

// The ladder choice alone, for a sample of `n`: percentile, sample count,
// and samples beyond; `value` is left 0. SupportedTail and
// LatencyLog::Tail both take their percentile from here.
std::optional<TailPoint> ChooseTail(size_t n, size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it (1-based rank ceil(p/100 * n)).
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
    const size_t beyond = n - std::min(rank, n);
    if (n > 0 && beyond >= min_beyond) return TailPoint{p, n, beyond, 0};
  }
  return std::nullopt;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}


std::optional<TailPoint> SupportedTail(std::vector<double> samples,
                                       size_t min_beyond) {
  auto tail = ChooseTail(samples.size(), min_beyond);
  if (!tail.has_value()) return std::nullopt;
  const size_t rank = samples.size() - tail->beyond;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  tail->value = samples[rank - 1];
  return tail;
}

LatencyLog::LatencyLog()
    : counts_(kSubBuckets * kOctaves, 0), sums_(kSubBuckets * kOctaves, 0) {}

void LatencyLog::Record(double ms) {
  int exponent = 0;
  const double mantissa = std::frexp(std::max(ms, 1e-12), &exponent);
  // mantissa in [0.5, 1): sub-bucket by its linear position.
  const int octave = std::clamp(exponent + kOctaves / 2, 0, kOctaves - 1);
  const int sub = std::clamp(
      static_cast<int>((mantissa - 0.5) * 2 * kSubBuckets), 0,
      kSubBuckets - 1);
  const size_t bucket = static_cast<size_t>(octave) * kSubBuckets + sub;
  ++counts_[bucket];
  sums_[bucket] += ms;
  ++count_;
  sum_ += ms;
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    sums_[i] += other.sums_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyLog::ValueAtRank(size_t rank) const {
  size_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return sums_[i] / static_cast<double>(counts_[i]);
  }
  return 0;
}

double LatencyLog::Median() const {
  return count_ == 0 ? 0 : ValueAtRank((count_ + 1) / 2);
}

double LatencyLog::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<size_t>(std::ceil(q * count_ - 1e-9));
  return ValueAtRank(std::clamp<size_t>(rank, 1, count_));
}

std::optional<TailPoint> LatencyLog::Tail(size_t min_beyond) const {
  auto tail = ChooseTail(count_, min_beyond);
  if (tail.has_value()) tail->value = ValueAtRank(count_ - tail->beyond);
  return tail;
}

std::vector<uint32_t> ZipfSequence(uint32_t n, double s, uint64_t seed,
                                   size_t count) {
  gpm::Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (uint32_t& v : out) v = static_cast<uint32_t>(rng.Zipf(n, s));
  return out;
}

uint64_t PatternIdentity(const gpm::Graph& pattern) {
  std::vector<gpm::NodeId> order;
  if (gpm::CanonicalOrder(pattern, &order)) {
    return gpm::CanonicalFingerprint(pattern, order);
  }
  return pattern.ContentHash();
}

std::vector<gpm::Graph> FreshPatterns(const gpm::Graph& g, uint32_t nq,
                                      uint32_t max_diameter, size_t count,
                                      gpm::Rng* rng,
                                      std::unordered_set<uint64_t>* seen) {
  std::vector<gpm::Graph> out;
  out.reserve(count);
  // Bounded so a graph too small for `count` distinct shapes ends the
  // list instead of looping; callers check the size they got.
  for (size_t attempts = 0; out.size() < count && attempts < 20 * count + 100;
       ++attempts) {
    auto pattern = gpm::ExtractPattern(g, nq, rng);
    if (!pattern.ok()) continue;
    const auto diameter = gpm::Diameter(*pattern);
    if (!diameter.ok() || *diameter > max_diameter) continue;
    if (!seen->insert(PatternIdentity(*pattern)).second) continue;
    out.push_back(std::move(*pattern));
  }
  return out;
}

std::vector<gpm::GraphEdit> SampleFeasibleEdits(const gpm::MutableGraph& data,
                                                size_t count, gpm::Rng* rng) {
  std::vector<gpm::GraphEdit> batch;
  const size_t n = data.num_nodes();
  if (n < 2) return batch;
  for (size_t attempts = 0; batch.size() < count && attempts < 50 * count + 100;
       ++attempts) {
    const auto a = static_cast<gpm::NodeId>(rng->Uniform(n));
    const auto b = static_cast<gpm::NodeId>(rng->Uniform(n));
    if (a == b) continue;
    const bool insert = rng->Bernoulli(0.55);
    if (insert == data.HasEdge(a, b, 0)) continue;
    const bool conflicts =
        std::any_of(batch.begin(), batch.end(), [&](const gpm::GraphEdit& e) {
          return e.from == a && e.to == b;
        });
    if (conflicts) continue;
    batch.push_back(insert ? gpm::GraphEdit::InsertEdge(a, b)
                           : gpm::GraphEdit::RemoveEdge(a, b));
  }
  return batch;
}

gpm::Engine CachelessEngine() {
  gpm::EngineOptions options;
  options.prepared_cache_capacity = 0;
  options.filter_cache_capacity = 0;
  options.regex_filter_cache_capacity = 0;
  options.result_cache_capacity = 0;
  options.csr_snapshot_cache_capacity = 0;
  options.aux_graph_cache_capacity = 0;
  return gpm::Engine(options);
}

ProbeRunner::ProbeRunner(gpm::Engine engine, Config config)
    : engine_(std::move(engine)),
      config_(std::move(config)),
      rng_(config_.seed) {
  if (config_.standing == nullptr) return;
  auto session = engine_.OpenIncremental(*config_.standing, config_.graph);
  if (session.ok()) {
    session_ = std::make_unique<gpm::IncrementalSession>(std::move(*session));
  }
}

bool ProbeRunner::ok() const {
  return session_ != nullptr && config_.batch_size > 0 &&
         config_.batch_queries.size() >= config_.batch_size;
}

void ProbeRunner::Step() {
  ++writes_;
  const auto edits =
      SampleFeasibleEdits(session_->data(), config_.edits_per_write, &rng_);
  double t0 = NowSeconds();
  if (!session_->ApplyBatch(edits).ok()) ++write_failures_;
  write_ms_.push_back((NowSeconds() - t0) * 1e3);

  const size_t n = config_.batch_size;
  if (next_ + n > config_.batch_queries.size()) return;
  std::vector<gpm::BatchItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i].query = config_.batch_queries[next_ + i].get();
    items[i].request = config_.request;
  }
  t0 = NowSeconds();
  const auto responses = engine_.MatchBatch(config_.graph, items);
  batch_ms_.push_back((NowSeconds() - t0) * 1e3);
  for (const auto& r : responses) {
    hashes_.push_back(r.ok() ? gpm::serving::ResponseContentHash(*r) : 0);
  }
  next_ += n;
}

ProbeRunner::Samples ProbeRunner::Finish(size_t warmup) const {
  Samples out;
  const gpm::Engine reference = CachelessEngine();
  for (size_t i = 0; i < hashes_.size(); ++i) {
    auto truth = reference.Match(*config_.batch_queries[i], config_.graph,
                                 config_.reference_request);
    if (!truth.ok() ||
        gpm::serving::ResponseContentHash(*truth) != hashes_[i]) {
      ++out.failed;
    }
  }
  out.attempted = writes_ + batch_ms_.size();
  out.failed += write_failures_;
  out.write_ms.assign(write_ms_.begin() + std::min(warmup, write_ms_.size()),
                      write_ms_.end());
  out.batch_ms.assign(batch_ms_.begin() + std::min(warmup, batch_ms_.size()),
                      batch_ms_.end());
  return out;
}

Provenance Classify(const gpm::MatchStats& stats) {
  if (stats.result_served_equivalent != 0) return Provenance::kEquivalentServe;
  if (stats.result_cache_hits != 0) return Provenance::kResultHit;
  if (stats.filter_seeded_containment != 0) return Provenance::kSeededFilter;
  if (stats.filter_cache_hits != 0) return Provenance::kFilterHit;
  return Provenance::kCold;
}

const char* ProvenanceName(Provenance p) {
  switch (p) {
    case Provenance::kResultHit:
      return "result_hit";
    case Provenance::kEquivalentServe:
      return "equivalent_serve";
    case Provenance::kSeededFilter:
      return "seeded_filter";
    case Provenance::kFilterHit:
      return "filter_hit";
    case Provenance::kCold:
      return "cold";
  }
  return "?";
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[s.parent].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 16);
}

double SpanRecorder::NowMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent, uint64_t request,
                            uint32_t thread) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, request, thread});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t index) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ms = now;
}

int64_t SpanRecorder::Add(const char* name, double start_ms, double end_ms,
                          int64_t parent, uint64_t request, uint32_t thread) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ms, end_ms, parent, request, thread});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"self_ms\": %.6f, \"parent\": %lld, "
                 "\"request\": %llu, \"thread\": %u}%s\n",
                 i, s.name, s.start_ms, s.end_ms, self[i],
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>> TotalSelfByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans.size(); ++i) totals[spans[i].name] += self[i];
  return {totals.begin(), totals.end()};
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
