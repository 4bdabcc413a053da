// The serving-path cache vocabulary of gpm::Engine: the key of a memoized
// per-(pattern, data graph) dual filter, the two LruCache instantiations
// (compiled patterns, dual-filter memos), and the aggregate stats snapshot
// the engine surfaces.
//
// Invalidation contract (see the README "Serving path" section):
//   - Prepared queries depend only on pattern content — entries key on the
//     pattern's ContentHash and never go stale; the LRU bound alone limits
//     them.
//   - Dual-filter memos, regex-filter memos, and materialized results
//     depend on the data graph. A Graph is immutable after Finalize() and
//     Finalize stamps a process-unique instance_id that content-copies
//     carry along, so the memos key on that stamp (plus the engine's data
//     version): two distinct data graphs — even one destroyed and another
//     allocated at the same address, or assigned into the same object —
//     can never collide. Engine::TickDataVersion() remains the coarse
//     switch: it re-keys *everything* at once, for operational "recompute
//     the world" moments (bulk reloads, suspected corruption).
//   - Pattern fingerprints are 64-bit content hashes. PrepareCached
//     re-checks hits structurally; the data-side memos key on the
//     fingerprint of a PreparedQuery the caller already holds, accepting
//     the 2^-64 collision odds between two *different* prepared patterns
//     (the industry-standard content-hash trade).
//   - Regex-filter memos follow the exact same contract as dual-filter
//     memos, with one twist on the pattern side: a regex query's
//     fingerprint is RegexQuery::ContentHash(), which mixes the
//     constraint set (and a regex tag) into the pattern hash — changing a
//     constraint re-keys the memo, and a regex query never collides with
//     its plain pattern graph. The memoized value is the global dual
//     regex-simulation product (ComputeRegexFilter): candidate bitmaps
//     plus surviving ball centers, reused by every executor of a repeat
//     request against the unchanged data graph.
//   - Aux-graph memos (the pruned auxiliary adjacency + landmark center
//     index of matching/aux_graph.h) are derived from a filter memo plus
//     the data graph at one ball radius, so they follow the dual-filter
//     contract with the radius folded into the key: a radius_override
//     lands in its own entry, and the same (instance_id, data_version)
//     story — plus TickDataVersion — invalidates them exactly when the
//     filter memo they were built from goes stale. One cache serves both
//     plain and regex runs: fingerprints of plain patterns and regex
//     queries never collide (the regex tag), so the kept-edge rule is
//     implied by the key.

#ifndef GPM_API_ENGINE_CACHE_H_
#define GPM_API_ENGINE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "api/prepared_query.h"
#include "common/lru_cache.h"
#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "matching/strong_simulation.h"

namespace gpm {

/// \brief Key of one memoized global dual filter: which pattern (by
/// content), which effective-pattern variant (the filter runs on the minQ
/// quotient when the request minimizes), and which data graph at which
/// engine data version.
struct DualFilterKey {
  uint64_t pattern_fingerprint = 0;
  bool minimize_query = false;
  uint64_t data_graph_id = 0;  ///< Graph::instance_id() of the data graph
  uint64_t data_version = 0;   ///< Engine::TickDataVersion count

  bool operator==(const DualFilterKey&) const = default;
};

struct DualFilterKeyHash {
  size_t operator()(const DualFilterKey& key) const {
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 1099511628211ULL;
      h ^= h >> 29;
    };
    mix(key.pattern_fingerprint);
    mix(key.minimize_query ? 1 : 2);
    mix(key.data_graph_id);
    mix(key.data_version);
    return static_cast<size_t>(h);
  }
};

/// Pattern ContentHash -> compiled PreparedQuery. Hits are re-checked with
/// StructurallyEqual before being trusted (a 64-bit collision falls back
/// to compiling uncached, never to a wrong answer).
using PreparedQueryCache = LruCache<uint64_t, PreparedQuery>;

/// DualFilterKey -> memoized §4.2 global-filter product.
using DualFilterCache = LruCache<DualFilterKey, DualFilterResult,
                                 DualFilterKeyHash>;

/// The per-(regex pattern, data) memo: DualFilterKey (with the regex
/// fingerprint; minimize_query stays false — regex runs never minimize)
/// -> the ComputeRegexFilter product. Same value shape as the dual-filter
/// memo, kept as its own cache so regex and plain workloads don't evict
/// each other and hit rates stay separately observable.
using RegexFilterCache = LruCache<DualFilterKey, DualFilterResult,
                                  DualFilterKeyHash>;

/// \brief Key of one memoized CSR data-graph snapshot: which data graph at
/// which engine data version. Pattern-independent — every strong-family
/// executor builds balls from the same read-only CsrGraph::FromGraph(g)
/// product, so one snapshot serves all queries against that graph.
struct CsrSnapshotKey {
  uint64_t data_graph_id = 0;  ///< Graph::instance_id() of the data graph
  uint64_t data_version = 0;   ///< Engine::TickDataVersion count

  bool operator==(const CsrSnapshotKey&) const = default;
};

struct CsrSnapshotKeyHash {
  size_t operator()(const CsrSnapshotKey& key) const {
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 1099511628211ULL;
      h ^= h >> 29;
    };
    mix(key.data_graph_id);
    mix(key.data_version);
    return static_cast<size_t>(h);
  }
};

/// CsrSnapshotKey -> flat CSR snapshot of the data graph, shared by every
/// executor of every request against that graph (see
/// EngineOptions::csr_snapshot_cache_capacity).
using CsrSnapshotCache = LruCache<CsrSnapshotKey, CsrGraph,
                                  CsrSnapshotKeyHash>;

/// \brief Key of one memoized auxiliary graph (matching/aux_graph.h):
/// which pattern (the fingerprint implies plain vs regex and with it the
/// kept-edge rule), which effective-pattern variant, which ball radius the
/// landmark index was bounded by, and which data graph at which engine
/// data version.
struct AuxGraphKey {
  uint64_t pattern_fingerprint = 0;
  bool minimize_query = false;  ///< always false for regex entries
  uint32_t radius = 0;          ///< the run's effective ball radius
  uint64_t data_graph_id = 0;   ///< Graph::instance_id() of the data graph
  uint64_t data_version = 0;    ///< Engine::TickDataVersion count

  bool operator==(const AuxGraphKey&) const = default;
};

struct AuxGraphKeyHash {
  size_t operator()(const AuxGraphKey& key) const {
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 1099511628211ULL;
      h ^= h >> 29;
    };
    mix(key.pattern_fingerprint);
    mix(key.minimize_query ? 1 : 2);
    mix(key.radius);
    mix(key.data_graph_id);
    mix(key.data_version);
    return static_cast<size_t>(h);
  }
};

/// AuxGraphKey -> memoized pruned adjacency + landmark center index.
using AuxGraphCache = LruCache<AuxGraphKey, AuxGraphResult, AuxGraphKeyHash>;

/// \brief Key of one materialized result set: the pattern, the *effective*
/// strong-family options (which fully determine Θ — Theorem 1 makes the
/// result policy-independent), the executor identity, and the data graph
/// at the engine's data version.
///
/// The executor (policy kind + thread count) is part of the key even
/// though it cannot change the answer: only an exactly repeated request is
/// served from memory, so cross-policy calls still execute — which is what
/// keeps the executor-equivalence suites meaningful and the §4.3
/// distributed observability (message counts) real. Distributed requests
/// are never served from this cache for the same reason.
struct MatchResultKey {
  uint64_t pattern_fingerprint = 0;
  bool minimize_query = false;
  bool dual_filter = false;
  bool connectivity_pruning = false;
  bool dedup = true;
  uint32_t radius_override = 0;
  int policy_kind = 0;      ///< ExecPolicy::Kind as int (Serial/Parallel)
  size_t num_threads = 0;   ///< Parallel worker count (0 = hardware)
  uint64_t data_graph_id = 0;  ///< Graph::instance_id() of the data graph
  uint64_t data_version = 0;

  bool operator==(const MatchResultKey&) const = default;
};

struct MatchResultKeyHash {
  size_t operator()(const MatchResultKey& key) const {
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 1099511628211ULL;
      h ^= h >> 29;
    };
    mix(key.pattern_fingerprint);
    mix((key.minimize_query ? 1 : 0) | (key.dual_filter ? 2 : 0) |
        (key.connectivity_pruning ? 4 : 0) | (key.dedup ? 8 : 0));
    mix(key.radius_override);
    mix(static_cast<uint64_t>(key.policy_kind));
    mix(key.num_threads);
    mix(key.data_graph_id);
    mix(key.data_version);
    return static_cast<size_t>(h);
  }
};

/// \brief One cached answer: the canonical result set plus the stats of
/// the run that computed it (counters are deterministic; a served hit
/// re-stamps only the cache flags and wall time).
struct CachedMatchResult {
  std::vector<PerfectSubgraph> subgraphs;
  MatchStats stats;
};

/// MatchResultKey -> materialized Θ.
using MatchResultCache = LruCache<MatchResultKey, CachedMatchResult,
                                  MatchResultKeyHash>;

/// \brief The cross-query containment index: a small bounded roster of
/// recently prepared patterns, scanned when an *unseen* query arrives to
/// find (a) an isomorphic donor whose materialized results can be served
/// through a node renaming, or (b) a containing donor whose memoized dual
/// filter can seed the new query's fixpoint (matching/containment.h).
///
/// Advisory only: every authoritative value still lives in the LRU caches
/// and is re-validated at use time (witness verification, filter Peek), so
/// a stale roster entry costs a failed probe, never a wrong answer. FIFO
/// eviction keeps the scan bounded and the structure trivially correct
/// under the engine's const-threaded use.
class CrossQueryIndex {
 public:
  struct Entry {
    uint64_t fingerprint = 0;            ///< exact ContentHash identity
    uint64_t canonical_fingerprint = 0;  ///< isomorphism class (or exact)
    std::shared_ptr<const PreparedQuery> query;
  };

  /// Adds `query` to the roster (dedup'd by exact fingerprint; refreshes
  /// nothing — FIFO). Regex queries may be registered too — the scan side
  /// skips them (their filter semantics differ from the plain dual
  /// filter), but accepting them keeps the call sites uniform.
  void Register(std::shared_ptr<const PreparedQuery> query) {
    if (query == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_) {
      if (e.fingerprint == query->fingerprint()) return;
    }
    if (entries_.size() >= kCapacity) entries_.pop_front();
    entries_.push_back(Entry{query->fingerprint(),
                             query->canonical_fingerprint(), std::move(query)});
  }

  /// True iff an entry with this exact fingerprint is on the roster —
  /// lets callers skip the PreparedQuery copy Register would dedup away.
  bool Contains(uint64_t fingerprint) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_) {
      if (e.fingerprint == fingerprint) return true;
    }
    return false;
  }

  /// A point-in-time copy of the roster (newest last). Cheap: shared_ptr
  /// copies of at most kCapacity entries.
  std::vector<Entry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {entries_.begin(), entries_.end()};
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Cross-query reuse counters (monotonic, engine lifetime).
  std::atomic<uint64_t> equivalent_result_hits{0};
  std::atomic<uint64_t> containment_filter_seeds{0};

 private:
  static constexpr size_t kCapacity = 64;
  mutable std::mutex mutex_;
  std::deque<Entry> entries_;
};

/// \brief Snapshot of the engine caches (Engine::cache_stats()).
struct EngineCacheStats {
  CacheStats prepared;
  CacheStats filter;
  CacheStats regex_filter;
  CacheStats results;
  CacheStats csr;
  CacheStats aux;
  uint64_t data_version = 0;
  /// Cross-query reuse: responses served from an isomorphic pattern's
  /// cached result, dual filters seeded from a containing pattern's memo,
  /// and the current containment-index roster size.
  uint64_t equivalent_result_hits = 0;
  uint64_t containment_filter_seeds = 0;
  size_t cross_query_entries = 0;
};

}  // namespace gpm

#endif  // GPM_API_ENGINE_CACHE_H_
