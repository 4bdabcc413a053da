// gpm::Engine — the single entry point to every matching notion in the
// library (the facade the serving layers build on).
//
// The paper presents simulation, dual simulation, and strong simulation as
// one spectrum the user picks from (§2, §4.2); the engine exposes that
// spectrum behind one call shape:
//
//   Engine engine;
//   auto pq = engine.Prepare(pattern);                   // compile once
//   MatchRequest request;
//   request.algo = Algo::kStrongPlus;
//   request.policy = ExecPolicy::Parallel(8);
//   auto response = engine.Match(*pq, data, request);    // run many times
//
// Prepare compiles the per-pattern §4.2 state (diameter dQ, minQ quotient,
// regex radius) once; Match reuses it for every request, so per-pattern
// preprocessing is amortized across requests — the per-(pattern, data)
// work (the global dual filter, the ball loop) is all that runs per call.
//
// Execution policies: Serial and Parallel{threads} cover every algorithm
// (the relation notions are single-worklist algorithms, so Parallel simply
// runs them on one core — accepted for call-shape uniformity).
// Distributed{partition} covers the strong family only — including
// kRegexStrong, whose ball locality carries over to weighted-radius
// balls: plain simulation has no data locality (Example 7), so the
// paper's §4.3 scheme cannot evaluate it and the engine reports
// NotImplemented rather than silently reassembling the graph.
//
// Execution: a Serial or Parallel strong-family Match runs its own ball
// loop (matching/ball_loop.h: one loop, an inline scheduler and a sharded
// one) over its own pruned auxiliary graph; MatchBatch is a loop over
// Match. Distributed requests go to the §4.3 BSP runtime.
//
// Streaming: the sink overload hands each perfect subgraph to a
// SubgraphSink as the ball loop produces it, so Θ is never materialized.
// The sink contract, uniform across policies:
//
//   - Delivery is incremental under Serial, Parallel, and Distributed
//     alike: Serial delivers in ball-center order; Parallel hands each
//     subgraph off through a bounded queue as its ball completes, and
//     Distributed ships each over the MessageBus as its fragment produces
//     it — both therefore deliver in completion order, which varies run to
//     run while the delivered *set* does not (Theorem 1). kRegexStrong
//     streams through the same three paths (its balls just use the
//     weighted regex radius).
//   - The sink is invoked by one thread at a time; no locking needed.
//   - Backpressure: a slow sink stalls the Parallel producers at the
//     bounded queue instead of buffering the whole result set.
//   - Cancellation: returning false stops the stream — a Serial run
//     builds no further ball, outstanding parallel shards / distributed
//     sites observe a cancellation token between balls, and the call
//     returns promptly; nothing more is delivered.
//   - Dedup'd subgraphs are delivered exactly once (MatchOptions::dedup);
//     MatchResponse::subgraphs stays empty, subgraphs_delivered counts.
//   - MatchStats::seconds_to_first_subgraph records when the first
//     subgraph reached the sink — the serving-path latency metric
//     (strictly below total wall time whenever the run found anything).
//
// Serving path (caching + batching): the engine carries six bounded,
// thread-safe LRU caches shared by every copy of it —
//
//   - PrepareCached(pattern) keys compiled queries on the pattern's
//     content hash, so repeated Prepare of an equal pattern is a lookup.
//   - Match memoizes the §4.2 global dual filter per (pattern, data
//     graph): a repeated Match of the same prepared query against an
//     unchanged G starts at the ball loop instead of re-running the
//     dual-simulation fixpoint. kRegexStrong has the analogous
//     per-(regex pattern, data) regex-filter memo (ComputeRegexFilter —
//     global dual regex-simulation bitmaps + surviving centers), keyed on
//     the constraint-aware RegexQuery::ContentHash(). An *exactly*
//     repeated request (same pattern, same effective options, same
//     policy, same G) is answered from the materialized-result cache
//     without matching at all.
//     Invalidation contract: a Graph is immutable after Finalize() and
//     carries a process-unique instance_id, so distinct data graphs can
//     never collide in the memos; TickDataVersion() re-keys everything at
//     once when a coarse "recompute the world" switch is wanted (see
//     engine_cache.h). Streaming (sink) calls and Distributed requests
//     always execute.
//   - The flat CSR snapshot the ball builders read is memoized per (data
//     graph, data version), so repeat requests — any pattern — skip the
//     O(V + E) conversion (EngineOptions::csr_snapshot_cache_capacity).
//   - The pruned auxiliary adjacency + landmark center index the ball
//     executors run over (matching/aux_graph.h) is memoized per
//     (pattern, effective radius, data graph, data version), so repeat
//     requests skip rebuilding it and start the ball loop directly on
//     the index-filtered center list
//     (EngineOptions::aux_graph_cache_capacity).
//   - MatchBatch(g, items) answers many requests against one data graph
//     by running each item, in order, exactly as a lone Match: its own
//     cache probes, aux graph, policy and ball loop. Requests share no
//     balls: each pattern's balls come from its own pruned aux graph, and
//     a loop shared by distinct patterns would have to build full-graph
//     balls instead, which cost far more than the builds it saves.
//
// Per-call cache observability lands in MatchStats
// (filter_cache_hits/misses, result_cache_hits/misses); aggregate hit
// rates in cache_stats().
//
// Serving under writes: OpenIncremental returns an IncrementalSession
// whose SubscribeSnapshots seam publishes each committed version as an
// immutable Graph; src/serving/ (SnapshotManager + GpmServer) builds the
// concurrent-reads-during-writes story on that seam — readers pin a
// snapshot epoch and Match against it while the writer repairs version
// N+1, with the instance_id contract above re-keying the caches per
// published version.

#ifndef GPM_API_ENGINE_H_
#define GPM_API_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/engine_cache.h"
#include "api/incremental_session.h"
#include "api/match_request.h"
#include "api/prepared_query.h"
#include "common/result.h"
#include "common/timer.h"
#include "extensions/regex_pattern.h"
#include "graph/graph.h"

namespace gpm {

/// \brief Engine-wide knobs (per-request knobs live on MatchRequest).
struct EngineOptions {
  /// Precompute the minQ quotient at Prepare time so minimizing requests
  /// skip it per call. One quadratic pass per Prepare; disable only for
  /// patterns that are prepared once and matched once.
  bool minimize_on_prepare = true;
  /// Cap substituted for unbounded regex repetitions when computing the
  /// prepared ball radius (see DefaultRegexRadius).
  uint32_t regex_unbounded_cap = 4;
  /// Capacity of the PrepareCached compiled-pattern LRU; 0 disables it
  /// (PrepareCached then compiles every call, like Prepare).
  size_t prepared_cache_capacity = 64;
  /// Capacity of the per-(pattern, data) dual-filter memo LRU; 0 disables
  /// memoization (every Match pays the global fixpoint).
  size_t filter_cache_capacity = 16;
  /// Capacity of the per-(regex pattern, data) regex-filter memo LRU.
  /// The global regex filter itself is always applied (the executors
  /// compute it when no memo is supplied); this knob only controls
  /// memoization. When > 0, the first kRegexStrong call on a (query,
  /// data) pair runs the global dual regex-simulation once
  /// (ComputeRegexFilter) and every later call — any policy, batch or
  /// streaming — starts from its pruned center list; 0 makes every call
  /// pay the global fixpoint itself, like a direct MatchStrongRegex. Same
  /// invalidation contract as the dual-filter memo (see engine_cache.h).
  size_t regex_filter_cache_capacity = 16;
  /// Capacity of the materialized-result LRU (exactly repeated strong-
  /// family requests are answered from memory; see MatchResultKey for what
  /// "exactly" means). 0 disables it. Benchmarks that intend to measure
  /// the matchers — not the cache — should disable every capacity here.
  size_t result_cache_capacity = 32;
  /// Capacity of the per-(data graph, data version) CSR snapshot LRU. The
  /// strong-family executors build balls from a flat read-only CSR copy of
  /// the data graph; memoizing it means repeat requests against the same
  /// graph skip the O(V + E) conversion. 0 disables memoization (each run
  /// converts locally — results identical).
  size_t csr_snapshot_cache_capacity = 8;
  /// Capacity of the per-(pattern, radius, data graph) auxiliary-graph
  /// memo LRU (matching/aux_graph.h): the pruned survivor-only adjacency
  /// plus the landmark-filtered center list every ball executor runs
  /// over. Memoizing it means repeat requests skip rebuilding the pruned
  /// CSR and the bounded landmark BFS. 0 disables memoization (each run
  /// builds locally — results identical).
  size_t aux_graph_cache_capacity = 8;
};

/// \brief One request of a MatchBatch: a prepared query plus the request
/// to run it under. The data graph is shared by the whole batch.
struct BatchItem {
  const PreparedQuery* query = nullptr;
  MatchRequest request;
  /// Optional per-item streaming sink. When set, the item runs as the
  /// streaming Match overload: its perfect subgraphs flow to the sink from
  /// its own ball loop as their balls complete (incremental delivery, one
  /// thread at a time, false stops this item's stream without affecting
  /// the rest of the batch), its MatchResponse::subgraphs stays empty, and
  /// it bypasses the materialized-result cache.
  SubgraphSink sink;
};

/// \brief The unified facade over every matcher in the library.
///
/// Carries no per-call state: cheap to copy and safe to share across
/// threads (each Match call has its own scratch). Copies share the six
/// serving-path caches — prepared queries, dual-filter memos, regex-filter
/// memos, materialized results, CSR snapshots, auxiliary-graph memos
/// (thread-safe; see engine_cache.h and EngineCacheStats) — so handing the
/// same engine — or copies of it — to many serving threads is the intended
/// deployment.
class Engine {
 public:
  Engine();
  explicit Engine(EngineOptions options);

  /// Compiles a plain pattern. InvalidArgument for an empty or
  /// un-finalized pattern. A disconnected pattern is accepted — the
  /// relation notions still work — but strong-family requests against it
  /// fail with the recorded strong_status().
  Result<PreparedQuery> Prepare(const Graph& pattern) const;

  /// Compiles a regex pattern (§6 extension). The result serves only
  /// Algo::kRegexStrong requests.
  Result<PreparedQuery> Prepare(RegexQuery query) const;

  /// Caching Prepare: returns the compiled query for `pattern` from the
  /// engine's LRU when an identical pattern (by content) was prepared
  /// before, compiling and caching it otherwise. The returned pointer
  /// stays valid for as long as the caller holds it, across evictions.
  /// Same validation as Prepare; errors are never cached.
  Result<std::shared_ptr<const PreparedQuery>> PrepareCached(
      const Graph& pattern) const;

  /// Runs one request against a prepared query.
  Result<MatchResponse> Match(const PreparedQuery& query, const Graph& g,
                              const MatchRequest& request = {}) const;

  /// One-shot convenience: Prepare + Match. Prefer the prepared overload
  /// when a pattern is matched more than once.
  Result<MatchResponse> Match(const Graph& pattern, const Graph& g,
                              const MatchRequest& request = {}) const;

  /// Streaming variant for the strong family: perfect subgraphs flow to
  /// `sink` incrementally under every ExecPolicy (see the sink contract in
  /// the file comment) and MatchResponse::subgraphs stays empty.
  /// InvalidArgument for relation notions (they produce one relation, not
  /// a stream).
  Result<MatchResponse> Match(const PreparedQuery& query, const Graph& g,
                              const MatchRequest& request,
                              const SubgraphSink& sink) const;

  /// Answers a batch of requests sharing one data graph: runs the items
  /// in order, each exactly as a lone Match (or, with BatchItem::sink set,
  /// as the streaming Match overload) would — its own result-cache probe,
  /// filter memo, aux graph, ExecPolicy and ball loop. So:
  ///
  ///   - responses[i] is byte-identical to Match(*items[i].query, g,
  ///     items[i].request) (the cache/batch equivalence suite asserts
  ///     this);
  ///   - each item runs under its own policy (a Serial item stays serial
  ///     beside a Parallel one);
  ///   - a streaming item delivers from its own loop, serially in
  ///     ascending center order with first-arrival dedup, in parallel in
  ///     completion order;
  ///   - each item's seconds and seconds_to_first_subgraph are timed from
  ///     its own start;
  ///   - a materialized item repeated later in the batch can be a
  ///     result-cache hit.
  std::vector<Result<MatchResponse>> MatchBatch(
      const Graph& g, std::span<const BatchItem> items) const;

  /// Opens a continuous query: the prepared pattern's Θ is computed once
  /// over `g` and then maintained incrementally as the session's graph
  /// mutates — each update repairs only the balls near its endpoints
  /// (O(affected balls), never O(V + E)), under the session policy
  /// (Serial, or Parallel ball workers — byte-identical results), with
  /// the net {added, removed} subgraphs streamed to the optional
  /// DeltaSink. See incremental_session.h for the session and sink
  /// contracts (including how Snapshot() keeps engine-cache keys stable
  /// between mutations).
  ///
  /// The query must be a plain (non-regex) pattern with
  /// strong_status().ok(); Distributed policies are NotImplemented.
  Result<IncrementalSession> OpenIncremental(
      const PreparedQuery& query, const Graph& g,
      IncrementalOptions options = {}) const;

  /// Coarse invalidation: bumps the engine's data version so every
  /// data-dependent memo (dual filters, materialized results) keys
  /// differently — stale entries become unreachable and age out of the
  /// LRUs. Per-graph correctness needs no tick (Graph::instance_id keys
  /// each finalized graph uniquely); this is the operational switch for
  /// "recompute everything" moments. See engine_cache.h.
  void TickDataVersion() const;

  /// Snapshot of all six caches' counters, the cross-query reuse counters
  /// (equivalent-result hits, containment filter seeds), and the current
  /// data version.
  EngineCacheStats cache_stats() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct CacheState;

  /// Outcome of one dual-filter memo consultation: the memo to run with
  /// (null when memoization does not apply) and whether this call hit or
  /// missed (both false when bypassed).
  struct FilterMemo {
    std::shared_ptr<const DualFilterResult> filter;
    bool hit = false;
    bool miss = false;
    /// This call's filter fixpoint was seeded from a containing cached
    /// pattern's survivors (MatchStats::filter_seeded_containment).
    bool seeded = false;
  };

  /// Every request, lone or a batch item: validation, the relation
  /// notions, and the Distributed branch; an in-process strong-family
  /// request goes to MatchInProcess.
  Result<MatchResponse> Dispatch(const PreparedQuery& query, const Graph& g,
                                 const MatchRequest& request,
                                 const SubgraphSink* sink) const;

  /// One Serial or Parallel strong-family request: answers it from the
  /// result cache (or an equivalent cached result) when it can; otherwise
  /// consults the filter memo, builds its run state, attaches its aux
  /// graph, runs its ball loop, and records the result (result cache,
  /// cross-query roster, stats). `timer` started with the request.
  Result<MatchResponse> MatchInProcess(const PreparedQuery& query,
                                       const Graph& g,
                                       const MatchRequest& request,
                                       const SubgraphSink* sink,
                                       const Timer& timer) const;

  /// Looks up / computes / stores the global-filter memo for one
  /// in-process strong-family call; leaves memo->filter null when
  /// memoization is off or the request does not use the dual filter.
  Status LookupFilter(const PreparedQuery& query, const Graph& g,
                      const MatchOptions& options, FilterMemo* memo) const;

  /// Same, for the regex-filter memo of one in-process kRegexStrong call;
  /// leaves memo->filter null when the regex filter cache is disabled —
  /// the run then computes the filter itself, uncached.
  Status LookupRegexFilter(const PreparedQuery& query, const Graph& g,
                           FilterMemo* memo) const;

  /// Containment-seeded filter computation (the LookupFilter miss path):
  /// scans the cross-query index for a cached pattern that dual-contains
  /// `query`, whose own filter memo for (g, current version) is resident;
  /// when found, computes this query's filter starting from the donor's
  /// survivor sets (translated through the containment witness) instead of
  /// whole label classes — byte-identical result, smaller fixpoint. Writes
  /// the result into *out and returns true; false means "no usable donor,
  /// compute cold".
  bool TrySeedFilter(const PreparedQuery& query, const Graph& g,
                     bool minimize_query, DualFilterResult* out) const;

  /// Equivalent-result serving (the result-cache miss path): scans the
  /// cross-query index for a cached *isomorphic* pattern (same canonical
  /// fingerprint, different exact fingerprint) whose materialized result
  /// for the same (options, policy, g, version) is resident, verifies the
  /// node renaming, and serves that entry with the relation translated to
  /// this query's node ids. Returns true and fills *response (stats
  /// stamped as a cross-query hit); false means "no donor, execute".
  bool TryServeEquivalentResult(const PreparedQuery& query, const Graph& g,
                                const MatchOptions& options,
                                const MatchRequest& request,
                                MatchResponse* response) const;

  /// The memoized CSR snapshot of `g` at the current data version, or
  /// null when the snapshot cache is disabled (callees then convert
  /// locally).
  std::shared_ptr<const CsrGraph> LookupCsr(const Graph& g) const;

  /// The memoized auxiliary graph (pruned adjacency + landmark center
  /// index) for one strong-family call at the given effective ball
  /// radius, or null when the aux cache is disabled (callees then build
  /// locally). On a miss the aux graph is built here — from
  /// BuildRegexAuxGraph for regex queries, BuildAuxGraph otherwise — and
  /// cached; `*aux_miss` is set so the caller can charge the build time
  /// to the run's stats.
  std::shared_ptr<const AuxGraphResult> LookupAux(
      const PreparedQuery& query, const Graph& g, bool minimize_query,
      uint32_t radius, const CsrGraph& csr, const DualFilterResult& filter,
      bool* aux_miss) const;

  EngineOptions options_;
  std::shared_ptr<CacheState> caches_;
};

}  // namespace gpm

#endif  // GPM_API_ENGINE_H_
