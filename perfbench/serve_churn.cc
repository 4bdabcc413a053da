// serve_churn: two closed-loop GpmServer::Serve readers drawing
// Zipf-popular Serial requests from a pool of plain patterns registered at
// Create, beside one writer on a fixed open-loop schedule that applies an
// edit batch through ApplyEdits (publishing a new epoch) and then
// refreshes a watchlist of standing patterns with one MatchBatch on the new
// snapshot. Serving, the engine's caches, incremental repair, and batching
// do most of the work here: reads mix result hits (µs) with misses (ms),
// most of them capacity misses of a result cache a little smaller than
// the pool, the rest caused by each new epoch.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "graph/csr_graph.h"
#include "quality/workloads.h"
#include "serving/load_driver.h"
#include "serving/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gpm::serving::GpmServer;
using gpm::serving::ResponseContentHash;

/// Small, so that a miss stays light (~0.17 ms, most of it the global
/// dual filter; ~0.4 ms at |V| = 5000): misses take about two thirds of
/// the readers' time.
constexpr uint32_t kGraphNodes = 1000;
constexpr uint32_t kGraphLabels = 50;
constexpr uint64_t kGraphSeed = 30111;
constexpr uint32_t kPatternNodes = 5;
constexpr uint32_t kMaxDiameter = 2;
/// The writer's standing query is smaller than the pool's patterns: its
/// incremental repair is the larger half of an ApplyEdits, and a 5-node
/// one doubled the write's cost.
constexpr uint32_t kStandingNodes = 3;
/// The writer's standing query, 47 seeded distinct patterns, and 16
/// derived ones: 8 node-renamed copies (answered from their donor's
/// entry, so the pool has 56 distinct result keys) and up to 8
/// one-node-smaller sub-patterns of distinct entries.
constexpr size_t kBasePatterns = 47;
constexpr size_t kRenamed = 8;
constexpr size_t kSubPatterns = 8;
/// Every read pattern (the standing query, the seeded ones and the
/// sub-patterns) and every watchlist pattern builds between kMinBalls and
/// kMaxBalls balls on the initial graph, so a miss costs about the same
/// whichever pattern it is. Unbanded, cold costs ran from 0.2 to 4.5 ms,
/// set by the ball count, and the p99.9 tail, which falls among the
/// misses, sat on the steep part of their distribution. Heavy patterns
/// are adhoc_cold's business.
constexpr size_t kMinBalls = 4;
constexpr size_t kMaxBalls = 16;
/// The result cache holds a little less than the pool's 56 distinct
/// keys, so most misses are capacity misses: about 1 read in 26, set by
/// the request stream alone (the default 32 entries made it 1 in 2).
/// With room for the whole pool, every miss came from an epoch
/// invalidating the cache; misses then arrived on the writer's clock
/// while hits arrived as fast as the box allowed, so a slower box read
/// fewer hits per miss and the p99.9 tail slid along the misses'
/// distribution, moving up to twice as much as the other metrics. Here
/// the tail sits near the misses' 97th percentile and moves with them.
constexpr size_t kResultCacheCapacity = 52;
constexpr size_t kWatchlist = 4;
/// The query catalog — pool, popularity ranks, watchlist, and the writer's
/// standing query — is deployment configuration drawn from a fixed seed;
/// --seed picks the traffic: each reader's request stream and the edits.
/// With a seeded catalog, which patterns happened to be popular (and how
/// large their results were to copy on a hit) moved throughput by 25%
/// between seeds.
constexpr uint64_t kFixedSeed = 777;
/// Flat enough that hit cost averages over many patterns' result sizes.
constexpr double kZipfExponent = 0.8;
constexpr size_t kReaders = 2;
/// Each reader's precomputed request list; it wraps around if a run
/// outlasts it.
constexpr size_t kReadsListed = 1 << 20;
/// Each epoch invalidates every cached result, which adds ~60 misses per
/// cycle: at 80 ms about a tenth of all misses, the part of the hit:miss
/// ratio that depends on the box's speed. A writer cycle (write and
/// batch) takes ~8 ms of the 80.
constexpr double kWriterPeriodSeconds = 0.08;
constexpr size_t kEditsPerBatch = 2;
/// The deadline only flags pathologies: a read slower than this is a
/// failed op.
constexpr double kDeadlineSeconds = 1.0;
/// Every this-many-th writer cycle retains its snapshot for the
/// from-scratch audits and the traced replays.
constexpr size_t kRetainEvery = 4;
constexpr size_t kAuditVersions = 6;
constexpr int kSetupReps = 5;
/// One in this many hit spans is kept in the traced run (every miss is).
constexpr uint64_t kHitSpanSampling = 64;

gpm::MatchRequest ReadRequest() {
  gpm::MatchRequest request;
  request.algo = gpm::Algo::kStrongPlus;
  request.policy = gpm::ExecPolicy::Serial();
  return request;
}

/// A node-renamed copy: the induced subgraph on a shuffled node list.
gpm::Graph RenamedCopy(const gpm::Graph& p, gpm::Rng* rng) {
  std::vector<gpm::NodeId> order(p.num_nodes());
  for (gpm::NodeId v = 0; v < order.size(); ++v) order[v] = v;
  rng->Shuffle(&order);
  return p.InducedSubgraph(order);
}

/// The pattern minus one node whose removal keeps it connected (a node of
/// undirected degree 1), or nullopt when there is none.
std::optional<gpm::Graph> SubPattern(const gpm::Graph& p) {
  for (gpm::NodeId drop = 0; drop < p.num_nodes(); ++drop) {
    std::unordered_set<gpm::NodeId> nbrs;
    for (gpm::NodeId w : p.OutNeighbors(drop)) nbrs.insert(w);
    for (gpm::NodeId w : p.InNeighbors(drop)) nbrs.insert(w);
    if (nbrs.size() != 1) continue;
    std::vector<gpm::NodeId> keep;
    for (gpm::NodeId v = 0; v < p.num_nodes(); ++v) {
      if (v != drop) keep.push_back(v);
    }
    return p.InducedSubgraph(keep);
  }
  return std::nullopt;
}

/// True when `p`'s cold match on `g` builds kMinBalls..kMaxBalls balls
/// (a deterministic cost proxy: it counts work, not time).
bool InCostBand(const gpm::Engine& reference, const gpm::Graph& p,
                const gpm::Graph& g) {
  auto response = reference.Match(p, g, ReadRequest());
  return response.ok() && response->stats.balls_considered >= kMinBalls &&
         response->stats.balls_considered <= kMaxBalls;
}

/// Up to `count` fresh `nq`-node patterns within the cost band.
std::vector<gpm::Graph> BandedPatterns(const gpm::Engine& reference,
                                       const gpm::Graph& g, uint32_t nq,
                                       size_t count, gpm::Rng* rng,
                                       std::unordered_set<uint64_t>* seen) {
  std::vector<gpm::Graph> out;
  for (size_t attempts = 0; out.size() < count && attempts < 20 * count;
       ++attempts) {
    auto one = FreshPatterns(g, nq, kMaxDiameter, 1, rng, seen);
    if (one.empty()) break;
    if (InCostBand(reference, one.front(), g)) out.push_back(one.front());
  }
  return out;
}

/// Everything the timed phase runs on, rebuilt identically from the seed.
struct State {
  gpm::Graph initial;
  gpm::Engine engine{[] {
    gpm::EngineOptions options;
    options.result_cache_capacity = kResultCacheCapacity;
    return options;
  }()};
  std::vector<std::shared_ptr<const gpm::PreparedQuery>> pool;
  std::vector<std::shared_ptr<const gpm::PreparedQuery>> watchlist;
  std::vector<std::vector<uint32_t>> reads;  // per reader: pool indices
  uint64_t edit_seed = 0;
  std::unique_ptr<GpmServer> server;
};

std::unique_ptr<State> Setup(uint64_t seed, std::string* error) {
  auto s = std::make_unique<State>();
  s->initial = gpm::MakeDataset(gpm::DatasetKind::kAmazonLike, kGraphNodes,
                                kGraphSeed, 1.2, kGraphLabels);
  std::unordered_set<uint64_t> seen;
  gpm::Rng fixed_rng(kFixedSeed);
  const gpm::Engine reference = CachelessEngine();
  const auto watch =
      BandedPatterns(reference, s->initial, kPatternNodes,
                                    kWatchlist, &fixed_rng, &seen);
  const auto standing =
      BandedPatterns(reference, s->initial, kStandingNodes, 1,
                     &fixed_rng, &seen);
  gpm::Rng& rng = fixed_rng;
  std::vector<gpm::Graph> patterns =
      BandedPatterns(reference, s->initial, kPatternNodes,
                     kBasePatterns, &rng, &seen);
  if (patterns.size() < kBasePatterns || watch.size() < kWatchlist ||
      standing.empty()) {
    *error = "serve_churn: could not extract enough fresh patterns";
    return nullptr;
  }
  for (size_t i = 0; i < kRenamed; ++i) {
    patterns.push_back(RenamedCopy(patterns[i], &rng));
  }
  for (size_t i = kRenamed; patterns.size() < kBasePatterns + kRenamed +
                                                  kSubPatterns &&
                            i < kBasePatterns;
       ++i) {
    if (auto sub = SubPattern(patterns[i]); sub.has_value()) {
      if (InCostBand(reference, *sub, s->initial) &&
          seen.insert(PatternIdentity(*sub)).second) {
        patterns.push_back(std::move(*sub));
      }
    }
  }
  // Popularity ranks are a seeded shuffle of the pool, so derived entries
  // are not always the least popular.
  patterns.push_back(standing.front());
  rng.Shuffle(&patterns);
  size_t writer_query = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i].ContentHash() == standing.front().ContentHash()) {
      writer_query = i;
    }
  }
  for (const gpm::Graph& p : patterns) {
    auto pq = s->engine.PrepareCached(p);
    if (!pq.ok()) {
      *error = "serve_churn: " + pq.status().ToString();
      return nullptr;
    }
    s->pool.push_back(*pq);
  }
  for (const gpm::Graph& p : watch) {
    auto pq = s->engine.PrepareCached(p);
    if (!pq.ok()) {
      *error = "serve_churn: " + pq.status().ToString();
      return nullptr;
    }
    s->watchlist.push_back(*pq);
  }
  for (size_t r = 0; r < kReaders; ++r) {
    s->reads.push_back(ZipfSequence(static_cast<uint32_t>(s->pool.size()),
                                    kZipfExponent,
                                    seed * 0x9E3779B97F4A7C15ULL + r + 1,
                                    kReadsListed));
  }
  s->edit_seed = seed ^ 0x5EED0000ULL;
  gpm::serving::ServerOptions server_options;
  server_options.deadline_seconds = kDeadlineSeconds;
  server_options.max_clients = kReaders + 2;
  server_options.writer_query_index = writer_query;
  auto server = GpmServer::Create(s->engine, s->pool, s->initial,
                                  server_options);
  if (!server.ok()) {
    *error = "serve_churn: " + server.status().ToString();
    return nullptr;
  }
  s->server = std::make_unique<GpmServer>(std::move(*server));
  // Warm-up: one pass over the pool fills the result, filter, aux, and
  // CSR caches for the initial epoch, and one watchlist batch runs.
  auto client = s->server->Connect();
  if (!client.ok()) {
    *error = "serve_churn: " + client.status().ToString();
    return nullptr;
  }
  for (size_t q = 0; q < s->pool.size(); ++q) {
    (void)s->server->Serve(*client, q, ReadRequest());
  }
  std::vector<gpm::BatchItem> items(s->watchlist.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].query = s->watchlist[i].get();
    items[i].request = ReadRequest();
  }
  (void)s->engine.MatchBatch(s->initial, items);
  return s;
}

/// What one reader observed. Latencies go to fixed-size logs, so memory
/// does not grow with throughput.
struct ReaderLog {
  LatencyLog all;
  LatencyLog hits;
  LatencyLog misses;
  LatencyLog overhead_us;  ///< Response.seconds - Response.match.seconds
  size_t by_provenance[5] = {};
  uint64_t errors = 0;
  uint64_t rejected = 0;
  uint64_t deadline_misses = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  /// (snapshot instance) -> (query index -> first answer hash).
  std::unordered_map<uint64_t, std::unordered_map<size_t, uint64_t>> answers;
};

/// One writer cycle's record.
struct Cycle {
  double late_ms = 0;
  double apply_ms = 0;
  double batch_ms = 0;
  bool ok = true;
  std::vector<gpm::GraphEdit> edits;
  std::shared_ptr<const gpm::Graph> snapshot;  ///< retained cycles only
  std::vector<uint64_t> batch_hashes;
  size_t balls_shared = 0;
  size_t balls_considered = 0;
};

/// What one timed phase observed.
struct Phase {
  double wall = 0;
  std::vector<ReaderLog> readers;
  ReaderLog merged;  ///< all readers; answers cross-checked between them
  std::vector<Cycle> cycles;
  uint64_t epoch_lag_max = 0;
  uint64_t retired_pending_max = 0;
  gpm::EngineCacheStats caches_before;
  gpm::EngineCacheStats caches_after;
};

/// Folds the readers' logs into phase->merged, comparing answers readers
/// got for the same (snapshot instance, query).
void MergeReaders(Phase* phase) {
  ReaderLog& m = phase->merged;
  for (const ReaderLog& r : phase->readers) {
    m.all.Merge(r.all);
    m.hits.Merge(r.hits);
    m.misses.Merge(r.misses);
    m.overhead_us.Merge(r.overhead_us);
    for (int p = 0; p < 5; ++p) m.by_provenance[p] += r.by_provenance[p];
    m.errors += r.errors;
    m.rejected += r.rejected;
    m.deadline_misses += r.deadline_misses;
    m.checked += r.checked;
    m.mismatches += r.mismatches;
    for (const auto& [instance, per_query] : r.answers) {
      auto& merged = m.answers[instance];
      for (const auto& [q, hash] : per_query) {
        auto [it, inserted] = merged.emplace(q, hash);
        if (!inserted) {
          ++m.checked;
          if (it->second != hash) ++m.mismatches;
        }
      }
    }
  }
}

/// Runs readers and the writer for `seconds`. With a recorder, records a
/// span per sampled read, and per writer cycle an apply and a batch span.
Phase RunPhase(State& s, double seconds, SpanRecorder* rec) {
  Phase phase;
  phase.readers.resize(kReaders);
  GpmServer& server = *s.server;
  std::atomic<bool> stop{false};
  phase.caches_before = s.engine.cache_stats();

  auto reader = [&](size_t id) {
    ReaderLog& mine = phase.readers[id];
    auto client = server.Connect();
    if (!client.ok()) {
      ++mine.errors;
      return;
    }
    const std::vector<uint32_t>& list = s.reads[id];
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t q = list[i % list.size()];
      const double start_ms = rec ? rec->NowMs() : 0;
      const double t0 = NowSeconds();
      auto response = server.Serve(*client, q, ReadRequest());
      const double ms = (NowSeconds() - t0) * 1e3;
      if (!response.ok()) {
        if (response.status().code() == gpm::StatusCode::kResourceExhausted) {
          ++mine.rejected;
        } else {
          ++mine.errors;
        }
        continue;
      }
      if (response->deadline_missed) ++mine.deadline_misses;
      const Provenance provenance = Classify(response->match.stats);
      ++mine.by_provenance[static_cast<int>(provenance)];
      mine.all.Record(ms);
      (IsHit(provenance) ? mine.hits : mine.misses).Record(ms);
      mine.overhead_us.Record(
          (response->seconds - response->match.seconds) * 1e6);
      if (rec != nullptr && (!IsHit(provenance) || i % kHitSpanSampling == 0)) {
        rec->Add("serving.serve", start_ms, start_ms + ms, -1, i,
                 static_cast<uint32_t>(id + 1));
      }
      const uint64_t hash = ResponseContentHash(response->match);
      auto [it, inserted] =
          mine.answers[response->graph_instance].emplace(q, hash);
      if (!inserted) {
        ++mine.checked;
        if (it->second != hash) ++mine.mismatches;
      }
    }
  };

  auto writer = [&] {
    gpm::Rng rng(s.edit_seed);
    std::vector<gpm::BatchItem> items(s.watchlist.size());
    for (size_t i = 0; i < items.size(); ++i) {
      items[i].query = s.watchlist[i].get();
      items[i].request = ReadRequest();
    }
    const double start = NowSeconds();
    for (size_t k = 1;; ++k) {
      const double due = start + k * kWriterPeriodSeconds;
      while (NowSeconds() < due && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::max<int64_t>(50, static_cast<int64_t>(
                                      (due - NowSeconds()) * 1e6) - 200)));
      }
      if (stop.load(std::memory_order_relaxed)) break;
      Cycle cycle;
      cycle.late_ms = (NowSeconds() - due) * 1e3;
      // Writer-thread borrow of the live adjacency (the session's one
      // writer, per its contract).
      cycle.edits = SampleFeasibleEdits(server.writer_session().data(),
                                        kEditsPerBatch, &rng);
      const int64_t cycle_span =
          rec ? rec->Begin("serving.writer_cycle", -1, k, 0) : -1;
      {
        SpanRecorder::Scope span(rec, "serving.apply_edits", cycle_span, k);
        const double t0 = NowSeconds();
        cycle.ok = server.ApplyEdits(cycle.edits).ok();
        cycle.apply_ms = (NowSeconds() - t0) * 1e3;
      }
      const std::shared_ptr<const gpm::Graph> snapshot =
          server.writer_session().Snapshot();
      if (k % kRetainEvery == 0) cycle.snapshot = snapshot;
      {
        SpanRecorder::Scope span(rec, "api.match_batch", cycle_span, k);
        const double t0 = NowSeconds();
        auto responses = s.engine.MatchBatch(*snapshot, items);
        cycle.batch_ms = (NowSeconds() - t0) * 1e3;
        for (auto& r : responses) {
          if (!r.ok()) {
            cycle.ok = false;
            cycle.batch_hashes.push_back(0);
            continue;
          }
          cycle.batch_hashes.push_back(ResponseContentHash(*r));
          cycle.balls_shared += r->stats.balls_shared;
          cycle.balls_considered += r->stats.balls_considered;
        }
      }
      if (rec != nullptr) rec->End(cycle_span);
      phase.cycles.push_back(std::move(cycle));
    }
  };

  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  // Sample epoch lag and undrained retirements at ~10 Hz.
  while (NowSeconds() - start < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto stats = server.snapshots().stats();
    phase.epoch_lag_max = std::max(
        phase.epoch_lag_max,
        stats.epoch - std::min(stats.epoch, stats.oldest_pinned_epoch));
    phase.retired_pending_max =
        std::max(phase.retired_pending_max, stats.retired_pending);
  }
  stop.store(true);
  phase.wall = NowSeconds() - start;
  for (std::thread& t : threads) t.join();
  phase.caches_after = s.engine.cache_stats();
  MergeReaders(&phase);
  return phase;
}

/// Post-run correctness on the retained snapshots: every answer readers
/// got on a seeded sample of them is re-matched from scratch, and every
/// retained watchlist batch is checked against lone Match on its snapshot.
/// Returns the number of mismatches.
uint64_t Audit(const State& s, const Phase& phase, uint64_t seed,
               uint64_t* checked) {
  const gpm::Engine reference = CachelessEngine();
  std::vector<const Cycle*> retained;
  for (const Cycle& c : phase.cycles) {
    if (c.snapshot != nullptr) retained.push_back(&c);
  }
  uint64_t mismatches = 0;
  gpm::Rng rng(seed ^ 0xA0D17ULL);
  for (uint64_t pick :
       rng.SampleWithoutReplacement(retained.size(), kAuditVersions)) {
    const gpm::Graph& g = *retained[pick]->snapshot;
    auto answers = phase.merged.answers.find(g.instance_id());
    if (answers == phase.merged.answers.end()) continue;
    for (const auto& [q, hash] : answers->second) {
      ++*checked;
      auto truth = reference.Match(*s.pool[q], g, ReadRequest());
      if (!truth.ok() || ResponseContentHash(*truth) != hash) ++mismatches;
    }
  }
  for (const Cycle* cycle : retained) {
    for (size_t i = 0; i < s.watchlist.size(); ++i) {
      ++*checked;
      auto truth = reference.Match(*s.watchlist[i], *cycle->snapshot,
                                   ReadRequest());
      if (!truth.ok() ||
          ResponseContentHash(*truth) != cycle->batch_hashes[i]) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Per-layer metrics from a traced phase plus its replays on retained
/// snapshots.
void TracedMetrics(const State& s, const Phase& traced, const Phase& untraced,
                   SpanRecorder* rec, Outcome* out) {
  const ReaderLog& reads = traced.merged;
  std::vector<double> apply_ms, batch_ms;
  double late_max = 0;
  size_t shared = 0, considered = 0;
  for (const Cycle& c : traced.cycles) {
    apply_ms.push_back(c.apply_ms);
    batch_ms.push_back(c.batch_ms);
    late_max = std::max(late_max, c.late_ms);
    shared += c.balls_shared;
    considered += c.balls_considered;
  }
  const gpm::EngineCacheStats& a = traced.caches_before;
  const gpm::EngineCacheStats& b = traced.caches_after;
  std::printf("cache deltas: results %llu/%llu, filter %llu/%llu, csr "
              "%llu/%llu, aux %llu/%llu (hits/lookups)\n",
              static_cast<unsigned long long>(b.results.hits - a.results.hits),
              static_cast<unsigned long long>(b.results.lookups -
                                              a.results.lookups),
              static_cast<unsigned long long>(b.filter.hits - a.filter.hits),
              static_cast<unsigned long long>(b.filter.lookups -
                                              a.filter.lookups),
              static_cast<unsigned long long>(b.csr.hits - a.csr.hits),
              static_cast<unsigned long long>(b.csr.lookups - a.csr.lookups),
              static_cast<unsigned long long>(b.aux.hits - a.aux.hits),
              static_cast<unsigned long long>(b.aux.lookups - a.aux.lookups));

  // Replays on the retained snapshots, after the timed phase.
  const gpm::Engine cacheless = CachelessEngine();
  std::vector<double> csr_ms, incremental_ms;
  double batch_wall = 0, singles_wall = 0;
  for (const Cycle& c : traced.cycles) {
    if (c.snapshot == nullptr) continue;
    SpanRecorder::Scope span(rec, "graph.csr_build", -1, 0);
    const double t0 = NowSeconds();
    const gpm::CsrGraph csr = gpm::CsrGraph::FromGraph(*c.snapshot);
    csr_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  {
    auto session = s.engine.OpenIncremental(
        *s.pool[s.server->options().writer_query_index], s.initial);
    if (session.ok()) {
      for (const Cycle& c : traced.cycles) {
        SpanRecorder::Scope span(rec, "api.incremental_apply", -1, 0);
        const double t0 = NowSeconds();
        if (!session->ApplyBatch(c.edits).ok()) ++out->failed;
        incremental_ms.push_back((NowSeconds() - t0) * 1e3);
      }
    } else {
      ++out->failed;
    }
  }
  std::vector<gpm::BatchItem> items(s.watchlist.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].query = s.watchlist[i].get();
    items[i].request = ReadRequest();
  }
  for (size_t k = 0; k < traced.cycles.size(); ++k) {
    if (traced.cycles[k].snapshot == nullptr) continue;
    const gpm::Graph& g = *traced.cycles[k].snapshot;
    {
      SpanRecorder::Scope span(rec, "api.batch_replay", -1, k);
      const double t0 = NowSeconds();
      (void)cacheless.MatchBatch(g, items);
      batch_wall += NowSeconds() - t0;
    }
    SpanRecorder::Scope span(rec, "api.singles_replay", -1, k);
    for (const gpm::BatchItem& item : items) {
      const double t0 = NowSeconds();
      (void)cacheless.Match(*item.query, g, item.request);
      singles_wall += NowSeconds() - t0;
    }
  }

  const double untraced_mean =
      Ratio(untraced.merged.all.sum(), untraced.merged.all.count());
  const double traced_mean = Ratio(reads.all.sum(), reads.all.count());
  std::printf("reads by provenance: %zu hits (p50 %.2f us), %zu misses "
              "(p50 %.3f ms)\n",
              reads.hits.count(), reads.hits.Median() * 1e3,
              reads.misses.count(), reads.misses.Median());
  std::printf("tracing overhead: traced mean read %.4f ms vs untraced %.4f "
              "ms\n",
              traced_mean, untraced_mean);
  out->Add("serving.overhead_us", reads.overhead_us.Median(), "us");
  out->Add("serving.apply_edits_ms", Mean(apply_ms), "ms");
  out->Add("serving.epoch_lag_max", traced.epoch_lag_max, "count");
  out->Add("serving.retired_pending_max", traced.retired_pending_max, "count");
  out->Add("serving.writer_late_ms", late_max, "ms");
  out->Add("api.result_hit_ratio", HitRatio(a.results, b.results), "ratio");
  out->Add("api.filter_hit_ratio", HitRatio(a.filter, b.filter), "ratio");
  out->Add("api.csr_hit_ratio", HitRatio(a.csr, b.csr), "ratio");
  out->Add("api.aux_hit_ratio", HitRatio(a.aux, b.aux), "ratio");
  out->Add("api.equivalent_serves",
           static_cast<double>(b.equivalent_result_hits -
                               a.equivalent_result_hits),
           "count");
  out->Add("api.containment_seeds",
           static_cast<double>(b.containment_filter_seeds -
                               a.containment_filter_seeds),
           "count");
  out->Add("api.hit_p50_us", reads.hits.Median() * 1e3, "us");
  out->Add("api.miss_p50_ms", reads.misses.Median(), "ms");
  out->Add("api.batch_ms", Mean(batch_ms), "ms");
  out->Add("api.batch_shared_ratio", Ratio(shared, considered), "ratio");
  out->Add("api.batch_vs_singles",
           singles_wall > 0 ? batch_wall / singles_wall : 0, "ratio");
  out->Add("api.incremental_apply_ms", Mean(incremental_ms), "ms");
  out->Add("graph.csr_build_ms", Mean(csr_ms), "ms");
  out->Add("trace.overhead_ratio",
           untraced_mean > 0 ? traced_mean / untraced_mean - 1 : 0, "ratio");
  // The top-level span of a read is Serve itself; what it does not cover
  // is the client's own work between reads (answer hashing, bookkeeping).
  out->Add("trace.top_level_coverage",
           Ratio(reads.all.sum() / 1e3, kReaders * traced.wall), "ratio");
}

}  // namespace

Outcome RunServeChurn(const RunOptions& options) {
  Outcome out;
  std::vector<double> setup_s;
  std::string error;
  auto s = RepeatSetup(options.trace ? 1 : kSetupReps, &setup_s,
                       [&] { return Setup(options.seed, &error); });
  if (s == nullptr) {
    out.error = error;
    return out;
  }
  std::printf("serve_churn: |V|=%zu |E|=%zu, pool of %zu patterns (%zu "
              "derived), watchlist %zu, threads used: %zu readers + 1 "
              "writer, writer period %.0f ms x %zu edits\n",
              s->initial.num_nodes(), s->initial.num_edges(), s->pool.size(),
              kRenamed + kSubPatterns, s->watchlist.size(), kReaders,
              kWriterPeriodSeconds * 1e3, kEditsPerBatch);

  const Phase phase = RunPhase(*s, options.seconds, nullptr);
  const ReaderLog& reads = phase.merged;
  uint64_t audited = 0;
  const uint64_t mismatches = Audit(*s, phase, options.seed, &audited);
  uint64_t write_failures = 0;
  for (const Cycle& c : phase.cycles) write_failures += c.ok ? 0 : 1;
  out.attempted = reads.all.count() + reads.errors + reads.rejected +
                  2 * phase.cycles.size();
  out.failed = reads.errors + reads.rejected + reads.deadline_misses +
               write_failures + reads.mismatches + mismatches;
  std::printf("correctness: %llu consistency checks (%llu mismatches), "
              "%llu from-scratch audits (%llu mismatches), %llu errors, "
              "%llu rejected, %llu deadline misses\n",
              static_cast<unsigned long long>(reads.checked),
              static_cast<unsigned long long>(reads.mismatches),
              static_cast<unsigned long long>(audited),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(reads.errors + write_failures),
              static_cast<unsigned long long>(reads.rejected),
              static_cast<unsigned long long>(reads.deadline_misses));

  if (options.trace) {
    auto fresh = Setup(options.seed, &error);
    if (fresh == nullptr) {
      out.error = error;
      return out;
    }
    SpanRecorder rec;
    const Phase traced = RunPhase(*fresh, options.seconds, &rec);
    Outcome layers;
    TracedMetrics(*fresh, traced, phase, &rec, &layers);
    layers.attempted = out.attempted;
    layers.failed = out.failed + layers.failed;
    layers.correct = layers.failed == 0;
    if (!rec.WriteJson(options.spans_path)) {
      out.error = "could not write " + options.spans_path;
      return out;
    }
    std::printf("spans: %zu written to %s\n", rec.spans().size(),
                options.spans_path.c_str());
    return layers;
  }

  std::vector<double> write_ms, batch_ms;
  double late_max = 0;
  for (const Cycle& c : phase.cycles) {
    write_ms.push_back(c.apply_ms);
    batch_ms.push_back(c.batch_ms);
    late_max = std::max(late_max, c.late_ms);
  }
  const auto tail = reads.all.Tail();
  std::printf("provenance:");
  for (int p = 0; p < 5; ++p) {
    std::printf(" %s=%zu", ProvenanceName(static_cast<Provenance>(p)),
                reads.by_provenance[p]);
  }
  std::printf(" (hit:miss %.1f:1; hit p50 %.2f us, miss p50 %.3f ms)\n",
              static_cast<double>(reads.hits.count()) /
                  std::max<size_t>(1, reads.misses.count()),
              reads.hits.Median() * 1e3, reads.misses.Median());
  std::printf("misses (ms): p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f "
              "p99 %.3f; hits (us): p99 %.2f p99.9 %.2f\n",
              reads.misses.Quantile(0.10), reads.misses.Quantile(0.25),
              reads.misses.Quantile(0.50), reads.misses.Quantile(0.75),
              reads.misses.Quantile(0.90), reads.misses.Quantile(0.99),
              reads.hits.Quantile(0.99) * 1e3,
              reads.hits.Quantile(0.999) * 1e3);
  std::printf("reads: %zu in %.3f s; tail p%.1f over %zu samples (%zu "
              "beyond); writer: %zu cycles, max %.3f ms late\n",
              reads.all.count(), phase.wall, tail ? tail->percentile : 0,
              tail ? tail->samples : 0, tail ? tail->beyond : 0,
              phase.cycles.size(), late_max);
  std::printf("setup reps (s):");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");
  out.correct = out.failed == 0;
  out.Add("latency_p50_ms", reads.all.Median(), "ms");
  out.Add("latency_tail_ms", tail ? tail->value : 0, "ms");
  out.Add("throughput_qps", reads.all.count() / phase.wall, "1/s");
  out.Add("write_p50_ms", Median(write_ms), "ms");
  out.Add("batch_p50_ms", Median(batch_ms), "ms");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return out;
}

}  // namespace perfbench
