#include "api/engine.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/algo_names.h"
#include "common/logging.h"
#include "common/timer.h"
#include "extensions/regex_strong.h"
#include "graph/components.h"
#include "matching/aux_graph.h"
#include "matching/ball_loop.h"
#include "matching/bounded_simulation.h"
#include "matching/containment.h"
#include "matching/dual_simulation.h"
#include "matching/simulation.h"
#include "matching/strong_simulation_internal.h"

namespace gpm {

/// The shared, thread-safe serving-path state behind every copy of one
/// Engine: the six LRU caches plus the data-version counter that keys
/// the data-dependent memos (see engine_cache.h for the invalidation
/// contract).
struct Engine::CacheState {
  CacheState(size_t prepared_capacity, size_t filter_capacity,
             size_t regex_filter_capacity, size_t result_capacity,
             size_t csr_capacity, size_t aux_capacity)
      : prepared(prepared_capacity),
        filter(filter_capacity),
        regex_filter(regex_filter_capacity),
        results(result_capacity),
        csr(csr_capacity),
        aux(aux_capacity) {}

  PreparedQueryCache prepared;
  DualFilterCache filter;
  RegexFilterCache regex_filter;
  MatchResultCache results;
  CsrSnapshotCache csr;
  AuxGraphCache aux;
  /// Roster of recently prepared patterns + the cross-query reuse
  /// counters (advisory; see CrossQueryIndex).
  CrossQueryIndex cross_query;
  std::atomic<uint64_t> data_version{0};
};

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options)
    : options_(options),
      caches_(std::make_shared<CacheState>(
          options.prepared_cache_capacity, options.filter_cache_capacity,
          options.regex_filter_cache_capacity, options.result_cache_capacity,
          options.csr_snapshot_cache_capacity,
          options.aux_graph_cache_capacity)) {}

void Engine::TickDataVersion() const {
  caches_->data_version.fetch_add(1, std::memory_order_acq_rel);
}

EngineCacheStats Engine::cache_stats() const {
  EngineCacheStats out;
  out.prepared = caches_->prepared.Stats();
  out.filter = caches_->filter.Stats();
  out.regex_filter = caches_->regex_filter.Stats();
  out.results = caches_->results.Stats();
  out.csr = caches_->csr.Stats();
  out.aux = caches_->aux.Stats();
  out.data_version = caches_->data_version.load(std::memory_order_acquire);
  out.equivalent_result_hits = caches_->cross_query.equivalent_result_hits.load(
      std::memory_order_relaxed);
  out.containment_filter_seeds =
      caches_->cross_query.containment_filter_seeds.load(
          std::memory_order_relaxed);
  out.cross_query_entries = caches_->cross_query.size();
  return out;
}

const char* ExecPolicyName(ExecPolicy::Kind kind) {
  switch (kind) {
    case ExecPolicy::Kind::kSerial: return "serial";
    case ExecPolicy::Kind::kParallel: return "parallel";
    case ExecPolicy::Kind::kDistributed: return "distributed";
  }
  return "unknown";
}

const RegexQuery& PreparedQuery::regex() const {
  GPM_CHECK(regex_.has_value());
  return *regex_;
}

namespace {

bool IsRelationAlgo(Algo algo) {
  return algo == Algo::kSimulation || algo == Algo::kDualSimulation ||
         algo == Algo::kBoundedSimulation;
}

// The MatchOptions actually executed for a strong-family request (see
// MatchRequest::options for the kStrong / kStrongPlus contract).
MatchOptions EffectiveOptions(const MatchRequest& request) {
  if (request.algo == Algo::kStrongPlus) {
    MatchOptions options = MatchPlusOptions();
    options.dedup = request.options.dedup;
    options.radius_override = request.options.radius_override;
    return options;
  }
  return request.options;
}

// The MatchOptions a kRegexStrong request actually executes: `dedup` and
// `radius_override` are honored (same fields kStrongPlus honors); the
// §4.2 toggles are meaningless for the regex notion — the regex filter is
// always on and the minQ quotient is defined for plain patterns only — so
// a request that sets one gets a named error instead of a silent ignore.
// The returned options also key the result cache, so requests differing
// only in the always-on dual_filter flag share one entry.
Result<MatchOptions> EffectiveRegexOptions(const MatchRequest& request) {
  const MatchOptions& requested = request.options;
  if (requested.minimize_query) {
    return Status::InvalidArgument(
        "MatchOptions::minimize_query does not apply to Algo::kRegexStrong: "
        "the minQ quotient is defined for plain patterns only");
  }
  if (requested.connectivity_pruning) {
    return Status::InvalidArgument(
        "MatchOptions::connectivity_pruning does not apply to "
        "Algo::kRegexStrong: the virtual match graph has its own "
        "center-component extraction");
  }
  if (request.policy.kind == ExecPolicy::Kind::kDistributed &&
      !requested.dedup) {
    return Status::InvalidArgument(
        "MatchOptions::dedup=false is not supported by distributed "
        "Algo::kRegexStrong runs: sites dedup during reassembly; rerun "
        "under ExecPolicy::Serial or ExecPolicy::Parallel for the raw "
        "one-result-per-ball stream");
  }
  MatchOptions effective;
  effective.dedup = requested.dedup;
  effective.radius_override = requested.radius_override;
  return effective;
}

// Key of the materialized-result cache for one (query, options, policy,
// data graph) combination (the eligibility checks live at the call sites).
MatchResultKey MakeResultKey(uint64_t pattern_fingerprint,
                             const MatchOptions& options,
                             const ExecPolicy& policy, const Graph* g,
                             uint64_t data_version) {
  MatchResultKey key;
  key.pattern_fingerprint = pattern_fingerprint;
  key.minimize_query = options.minimize_query;
  key.dual_filter = options.dual_filter;
  key.connectivity_pruning = options.connectivity_pruning;
  key.dedup = options.dedup;
  key.radius_override = options.radius_override;
  key.policy_kind = static_cast<int>(policy.kind);
  key.num_threads =
      policy.kind == ExecPolicy::Kind::kParallel ? policy.num_threads : 0;
  key.data_graph_id = g->instance_id();
  key.data_version = data_version;
  return key;
}

// Fills *response for a request answered from the materialized-result
// cache: the cached run's subgraphs and counters, re-stamped as a hit (the
// caller stamps the wall time).
void ServeFromCache(const CachedMatchResult& entry, bool equivalent,
                    MatchResponse* response) {
  response->subgraphs = entry.subgraphs;
  response->stats = entry.stats;
  response->stats.result_cache_hits = 1;
  response->stats.result_cache_misses = 0;
  response->stats.filter_cache_hits = 0;
  response->stats.filter_cache_misses = 0;
  response->stats.filter_seeded_containment = 0;
  response->stats.result_served_equivalent = equivalent ? 1 : 0;
  response->subgraphs_delivered = response->subgraphs.size();
  response->matched = !response->subgraphs.empty();
}

}  // namespace

Result<PreparedQuery> Engine::Prepare(const Graph& pattern) const {
  if (!pattern.finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (pattern.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  PreparedQuery query;
  query.pattern_ = pattern;
  query.fingerprint_ = pattern.ContentHash();
  // Canonical identity: isomorphic copies of one pattern share a
  // fingerprint (and carry the node order that witnesses it), which is
  // what lets PrepareCached collapse permuted duplicates and Dispatch
  // serve a renamed pattern from an equivalent cached result. When the
  // permutation search gives up, identity degrades to the exact hash.
  std::vector<NodeId> canonical_order;
  if (CanonicalOrder(query.pattern_, &canonical_order)) {
    query.canonical_order_ = std::move(canonical_order);
    query.canonical_fingerprint_ =
        CanonicalFingerprint(query.pattern_, query.canonical_order_);
  } else {
    query.canonical_fingerprint_ = query.fingerprint_;
  }
  auto prep = PreparePattern(query.pattern_, options_.minimize_on_prepare);
  if (prep.ok()) {
    query.prep_ = std::move(prep).ValueOrDie();
  } else {
    // Disconnected pattern: the relation notions still work; record why
    // the strong family will not.
    query.strong_status_ = prep.status();
  }
  return query;
}

Result<PreparedQuery> Engine::Prepare(RegexQuery regex) const {
  if (!regex.pattern().finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (regex.pattern().num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  PreparedQuery query;
  query.pattern_ = regex.pattern();
  // The constraint-aware hash: regex cache entries (result cache,
  // regex-filter memo) must re-key when a constraint changes, and must
  // never collide with the plain pattern graph's entries.
  query.fingerprint_ = regex.ContentHash();
  // Regex queries keep exact identity: cross-query reuse is defined for
  // the plain dual filter only (a regex constraint set changes both the
  // filter semantics and the ball radius).
  query.canonical_fingerprint_ = query.fingerprint_;
  if (IsConnected(query.pattern_)) {
    query.regex_radius_ =
        DefaultRegexRadius(regex, options_.regex_unbounded_cap);
  } else {
    query.strong_status_ = Status::InvalidArgument(
        "pattern graph must be connected (paper §2.1)");
  }
  query.regex_ = std::move(regex);
  return query;
}

Result<std::shared_ptr<const PreparedQuery>> Engine::PrepareCached(
    const Graph& pattern) const {
  if (!pattern.finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (pattern.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  const uint64_t fingerprint = pattern.ContentHash();
  // Key on the canonical (isomorphism-class) fingerprint: structurally
  // identical patterns with permuted node ids land on one cache entry
  // instead of one each. When canonicalization gives up (permutation
  // budget), the key degrades to the exact content hash — the old
  // behavior.
  std::vector<NodeId> order;
  const uint64_t cache_key = CanonicalOrder(pattern, &order)
                                 ? CanonicalFingerprint(pattern, order)
                                 : fingerprint;
  if (auto cached = caches_->prepared.Get(cache_key)) {
    // Trust the 64-bit key only after a structural re-check: a hash
    // collision compiles uncached instead of serving the wrong query.
    if (cached->fingerprint() == fingerprint &&
        cached->pattern().StructurallyEqual(pattern,
                                            /*compare_edge_labels=*/true)) {
      return cached;
    }
    // Same isomorphism class under a different node numbering (or a
    // collision): compile fresh without occupying a second slot — the
    // resident entry already covers the class, and a compiled prep must
    // stay a function of its own pattern's numbering (the quotient and
    // the data-side memos are all indexed by it).
    GPM_ASSIGN_OR_RETURN(PreparedQuery fresh, Prepare(pattern));
    auto owned = std::make_shared<const PreparedQuery>(std::move(fresh));
    caches_->cross_query.Register(owned);
    return owned;
  }
  GPM_ASSIGN_OR_RETURN(PreparedQuery fresh, Prepare(pattern));
  auto stored = caches_->prepared.Put(cache_key, std::move(fresh));
  caches_->cross_query.Register(stored);
  return stored;
}

Status Engine::LookupFilter(const PreparedQuery& query, const Graph& g,
                            const MatchOptions& options,
                            FilterMemo* memo) const {
  // A run without the filter has nothing to memo.
  if (!options.dual_filter ||
      caches_->filter.capacity() == 0) {
    return Status::OK();
  }
  DualFilterKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = options.minimize_query;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  memo->filter = caches_->filter.Get(key);
  if (memo->filter != nullptr) {
    memo->hit = true;
    return Status::OK();
  }
  // Miss: before paying the cold fixpoint, try to seed it from a cached
  // pattern that dual-contains this one (candidate sets start from the
  // container's survivors — byte-identical result, smaller worklist).
  DualFilterResult computed;
  if (TrySeedFilter(query, g, options.minimize_query, &computed)) {
    memo->seeded = true;
  } else {
    GPM_ASSIGN_OR_RETURN(computed,
                         ComputeDualFilter(query.pattern(), g,
                                           options.minimize_query,
                                           &query.prep()));
  }
  memo->filter = caches_->filter.Put(key, std::move(computed));
  memo->miss = true;
  // This pattern now has a resident filter memo — put it on the
  // cross-query roster so later queries can probe it as a donor.
  if (!caches_->cross_query.Contains(query.fingerprint())) {
    caches_->cross_query.Register(
        std::make_shared<const PreparedQuery>(query));
  }
  return Status::OK();
}

Status Engine::LookupRegexFilter(const PreparedQuery& query, const Graph& g,
                                 FilterMemo* memo) const {
  // Nothing to do when the regex filter memo is disabled (the run then
  // computes the filter itself, like a direct MatchStrongRegex).
  if (caches_->regex_filter.capacity() == 0) {
    return Status::OK();
  }
  DualFilterKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = false;  // regex runs never minimize
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  memo->filter = caches_->regex_filter.Get(key);
  if (memo->filter != nullptr) {
    memo->hit = true;
    return Status::OK();
  }
  GPM_ASSIGN_OR_RETURN(DualFilterResult computed,
                       ComputeRegexFilter(query.regex(), g));
  memo->filter = caches_->regex_filter.Put(key, std::move(computed));
  memo->miss = true;
  return Status::OK();
}

bool Engine::TrySeedFilter(const PreparedQuery& query, const Graph& g,
                           bool minimize_query, DualFilterResult* out) const {
  if (query.has_regex()) return false;
  // Resolve the effective pattern the filter will run on, mirroring
  // ComputeDualFilter. When the request minimizes but the prep carries no
  // quotient (minimize_on_prepare off), decline rather than re-minimize
  // here — the cold path handles it.
  const Graph* qeff = &query.pattern();
  if (minimize_query) {
    if (!query.prep().has_minimized) return false;
    qeff = &query.prep().minimized;
  }
  const uint64_t version =
      caches_->data_version.load(std::memory_order_acquire);
  const auto roster = caches_->cross_query.Snapshot();
  // Newest donors first, a bounded number of them: the roster is
  // advisory and the containment check is cheap but not free.
  constexpr size_t kMaxDonors = 8;
  size_t examined = 0;
  for (auto it = roster.rbegin();
       it != roster.rend() && examined < kMaxDonors; ++it) {
    const CrossQueryIndex::Entry& entry = *it;
    if (entry.query == nullptr || entry.query->has_regex()) continue;
    if (entry.fingerprint == query.fingerprint()) continue;
    ++examined;
    // A donor is usable under either minimize flag — the composition
    // lemma only needs its survivor sets, whichever quotient they are
    // indexed by. Try the caller's flag first (the likelier resident).
    for (const bool donor_min : {minimize_query, !minimize_query}) {
      const Graph* donor_qeff = &entry.query->pattern();
      if (donor_min) {
        if (!entry.query->prep().has_minimized) continue;
        donor_qeff = &entry.query->prep().minimized;
      }
      DualFilterKey donor_key;
      donor_key.pattern_fingerprint = entry.fingerprint;
      donor_key.minimize_query = donor_min;
      donor_key.data_graph_id = g.instance_id();
      donor_key.data_version = version;
      const auto donor_filter = caches_->filter.Peek(donor_key);
      if (donor_filter == nullptr) continue;
      const ContainmentWitness witness =
          CheckDualContainment(*donor_qeff, *qeff);
      if (!witness.contained) continue;
      if (donor_filter->proven_empty) {
        // Emptiness transfers: the donor pattern is connected, so its
        // non-total relation cascaded to all-empty survivor sets, and
        // every covered node of ours (containment guarantees at least
        // one) is bounded by an empty set.
        *out = DualFilterResult{};
        out->proven_empty = true;
        caches_->cross_query.containment_filter_seeds.fetch_add(
            1, std::memory_order_relaxed);
        return true;
      }
      if (donor_filter->bits.size() != donor_qeff->num_nodes()) continue;
      // Initial candidates: the donor's survivors for witnessed nodes
      // (already label-consistent — both dual simulations preserve
      // labels), whole label classes for uncovered ones. Both are
      // supersets of the maximum relation, which is all the seeded
      // fixpoint needs to land on the exact cold-run result.
      std::vector<std::vector<NodeId>> initial(qeff->num_nodes());
      for (NodeId u = 0; u < qeff->num_nodes(); ++u) {
        if (witness.map[u] != kInvalidNode) {
          const DynamicBitset& survivors = donor_filter->bits[witness.map[u]];
          const Label want = qeff->label(u);
          survivors.ForEach([&](size_t v) {
            if (g.label(static_cast<NodeId>(v)) == want) {
              initial[u].push_back(static_cast<NodeId>(v));
            }
          });
        } else {
          const auto cls = g.NodesWithLabel(qeff->label(u));
          initial[u].assign(cls.begin(), cls.end());
        }
      }
      auto seeded = ComputeDualFilterSeeded(query.pattern(), g,
                                            minimize_query, &query.prep(),
                                            initial);
      if (!seeded.ok()) continue;
      *out = std::move(seeded).ValueOrDie();
      caches_->cross_query.containment_filter_seeds.fetch_add(
          1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Engine::TryServeEquivalentResult(const PreparedQuery& query,
                                      const Graph& g,
                                      const MatchOptions& options,
                                      const MatchRequest& request,
                                      MatchResponse* response) const {
  if (query.has_regex() || query.canonical_order().empty()) return false;
  if (caches_->results.capacity() == 0) return false;
  const uint64_t version =
      caches_->data_version.load(std::memory_order_acquire);
  const size_t n = query.pattern().num_nodes();
  const auto roster = caches_->cross_query.Snapshot();
  for (auto it = roster.rbegin(); it != roster.rend(); ++it) {
    const CrossQueryIndex::Entry& entry = *it;
    if (entry.query == nullptr || entry.query->has_regex()) continue;
    if (entry.canonical_fingerprint != query.canonical_fingerprint())
      continue;
    if (entry.fingerprint == query.fingerprint()) continue;
    if (entry.query->canonical_order().empty()) continue;
    const MatchResultKey donor_key =
        MakeResultKey(entry.fingerprint, options, request.policy, &g, version);
    const auto donor = caches_->results.Peek(donor_key);
    if (donor == nullptr) continue;
    // The canonical orders imply a renaming phi : ours -> donor's; verify
    // it is a labeled isomorphism (fingerprint collisions must fall
    // through to execution, never to a wrong answer).
    const auto phi = WitnessFromCanonicalOrders(
        query.pattern(), query.canonical_order(), entry.query->pattern(),
        entry.query->canonical_order());
    if (!phi.has_value()) continue;
    bool shapes_ok = true;
    for (const PerfectSubgraph& pg : donor->subgraphs) {
      if (pg.relation.sim.size() != n) {
        shapes_ok = false;
        break;
      }
    }
    if (!shapes_ok) continue;
    // Serve through the renaming. A perfect subgraph's nodes, edges,
    // center, and radius are data-graph facts, identical for isomorphic
    // patterns (so the (center, content-hash) canonical order is too);
    // only the relation is indexed by pattern node, so only it is
    // translated: our node u matched what the donor's phi[u] matched.
    ServeFromCache(*donor, /*equivalent=*/true, response);
    for (PerfectSubgraph& pg : response->subgraphs) {
      MatchRelation renamed(n);
      for (NodeId u = 0; u < n; ++u) {
        renamed.sim[u] = std::move(pg.relation.sim[(*phi)[u]]);
      }
      pg.relation = std::move(renamed);
    }
    caches_->cross_query.equivalent_result_hits.fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::shared_ptr<const CsrGraph> Engine::LookupCsr(const Graph& g) const {
  if (caches_->csr.capacity() == 0) return nullptr;
  CsrSnapshotKey key;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  if (auto hit = caches_->csr.Get(key)) return hit;
  return caches_->csr.Put(key, CsrGraph::FromGraph(g));
}

std::shared_ptr<const AuxGraphResult> Engine::LookupAux(
    const PreparedQuery& query, const Graph& g, bool minimize_query,
    uint32_t radius, const CsrGraph& csr, const DualFilterResult& filter,
    bool* aux_miss) const {
  if (caches_->aux.capacity() == 0) return nullptr;
  AuxGraphKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = minimize_query;
  key.radius = radius;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  if (auto hit = caches_->aux.Get(key)) return hit;
  *aux_miss = true;
  return caches_->aux.Put(
      key, query.has_regex()
               ? BuildRegexAuxGraph(query.regex(), csr, filter, radius)
               : BuildAuxGraph(csr, filter, radius));
}

Result<MatchResponse> Engine::Match(const PreparedQuery& query, const Graph& g,
                                    const MatchRequest& request) const {
  return Dispatch(query, g, request, nullptr);
}

Result<MatchResponse> Engine::Match(const Graph& pattern, const Graph& g,
                                    const MatchRequest& request) const {
  GPM_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(pattern));
  return Dispatch(query, g, request, nullptr);
}

Result<MatchResponse> Engine::Match(const PreparedQuery& query, const Graph& g,
                                    const MatchRequest& request,
                                    const SubgraphSink& sink) const {
  return Dispatch(query, g, request, &sink);
}

Result<MatchResponse> Engine::Dispatch(const PreparedQuery& query,
                                       const Graph& g,
                                       const MatchRequest& request,
                                       const SubgraphSink* sink) const {
  if (!g.finalized())
    return Status::InvalidArgument("data graph must be finalized");
  if (query.has_regex() && request.algo != Algo::kRegexStrong) {
    return Status::InvalidArgument(
        "query was prepared with regex constraints; request "
        "Algo::kRegexStrong");
  }
  if (!query.has_regex() && request.algo == Algo::kRegexStrong) {
    return Status::InvalidArgument(
        "Algo::kRegexStrong needs a query prepared from a RegexQuery");
  }
  if (sink != nullptr && IsRelationAlgo(request.algo)) {
    return Status::InvalidArgument(
        "streaming applies to the strong-simulation family; relation "
        "notions produce one relation, not a subgraph stream");
  }

  Timer timer;
  MatchResponse response;

  if (IsRelationAlgo(request.algo)) {
    // Single-worklist algorithms: Parallel runs them serially (call-shape
    // uniformity); Distributed is impossible without locality (Example 7).
    if (request.policy.kind == ExecPolicy::Kind::kDistributed) {
      return Status::NotImplemented(
          std::string("algorithm '") + AlgoName(request.algo) +
          "' has no distributed executor: relation notions have no data "
          "locality (Example 7); rerun it under ExecPolicy::Serial or "
          "ExecPolicy::Parallel, or pick a strong-family algorithm for "
          "ExecPolicy::Distributed");
    }
    switch (request.algo) {
      case Algo::kSimulation:
        response.relation = ComputeSimulation(query.pattern(), g);
        break;
      case Algo::kDualSimulation:
        response.relation = ComputeDualSimulation(query.pattern(), g);
        break;
      case Algo::kBoundedSimulation:
        response.relation = ComputeBoundedSimulation(query.pattern(), g);
        break;
      default:
        // A future Algo value must be routed explicitly, not silently
        // evaluated under the wrong notion.
        return Status::InvalidArgument(
            "algorithm has no relation executor");
    }
    response.matched = response.relation.IsTotal();
    response.seconds = timer.Seconds();
    return response;
  }

  if (!query.strong_status().ok()) return query.strong_status();
  if (request.policy.kind != ExecPolicy::Kind::kDistributed) {
    return MatchInProcess(query, g, request, sink, timer);
  }

  // Distributed (§4.3): fragment sites build their own per-fragment state,
  // so no engine cache applies and every call executes. Streaming ships
  // each subgraph over the MessageBus as its fragment produces it.
  const DistributedOptions& sites = request.policy.distributed;
  if (query.has_regex()) {
    GPM_ASSIGN_OR_RETURN(const MatchOptions regex_options,
                         EffectiveRegexOptions(request));
    const uint32_t radius = regex_options.radius_override != 0
                                ? regex_options.radius_override
                                : query.regex_radius();
    if (sink != nullptr) {
      GPM_ASSIGN_OR_RETURN(
          response.subgraphs_delivered,
          MatchStrongRegexDistributedStream(query.regex(), g, radius, sites,
                                            *sink, &response.distributed));
    } else {
      GPM_ASSIGN_OR_RETURN(
          response.subgraphs,
          MatchStrongRegexDistributed(query.regex(), g, radius, sites,
                                      &response.distributed));
    }
  } else if (sink != nullptr) {
    GPM_ASSIGN_OR_RETURN(
        response.subgraphs_delivered,
        MatchStrongDistributedStream(query.pattern(), g, sites, *sink,
                                     &response.distributed));
  } else {
    GPM_ASSIGN_OR_RETURN(response.subgraphs,
                         MatchStrongDistributed(query.pattern(), g, sites,
                                                &response.distributed));
  }
  if (sink != nullptr) {
    response.stats.seconds_to_first_subgraph =
        response.distributed.seconds_to_first_result;
  } else {
    response.subgraphs_delivered = response.subgraphs.size();
  }
  response.matched = response.subgraphs_delivered > 0;
  response.seconds = timer.Seconds();
  return response;
}

Result<MatchResponse> Engine::MatchInProcess(const PreparedQuery& query,
                                             const Graph& g,
                                             const MatchRequest& request,
                                             const SubgraphSink* sink,
                                             const Timer& timer) const {
  // The executed options, normalized so they key the result cache. A regex
  // request that sets a §4.2 toggle gets a named error.
  MatchOptions options;
  if (query.has_regex()) {
    GPM_ASSIGN_OR_RETURN(options, EffectiveRegexOptions(request));
  } else {
    options = EffectiveOptions(request);
  }
  // Serving-path result cache: an exactly repeated request (see
  // MatchResultKey) is answered from memory — no filter, no balls — and so
  // is a renamed copy of a cached plain pattern, through the witness
  // renaming. Streaming requests always execute.
  MatchResponse response;
  std::optional<MatchResultKey> result_key;
  if (sink == nullptr && caches_->results.capacity() > 0) {
    result_key = MakeResultKey(
        query.fingerprint(), options, request.policy, &g,
        caches_->data_version.load(std::memory_order_acquire));
    bool answered = false;
    if (auto hit = caches_->results.Get(*result_key)) {
      ServeFromCache(*hit, /*equivalent=*/false, &response);
      answered = true;
    } else {
      answered = TryServeEquivalentResult(query, g, options, request,
                                          &response);
    }
    if (answered) {
      response.seconds = timer.Seconds();
      response.stats.total_seconds = response.seconds;
      return response;
    }
  }
  // Reuse (or fill) the per-(pattern, data) global filter memo so a repeat
  // call skips the fixpoint.
  FilterMemo memo;
  GPM_RETURN_NOT_OK(query.has_regex()
                        ? LookupRegexFilter(query, g, &memo)
                        : LookupFilter(query, g, options, &memo));
  // The CSR snapshot the balls are built from (memoized across calls when
  // the snapshot cache is on).
  const std::shared_ptr<const CsrGraph> csr_memo = LookupCsr(g);
  CsrGraph local_csr;
  if (csr_memo == nullptr) local_csr = CsrGraph::FromGraph(g);
  const CsrGraph& csr = csr_memo != nullptr ? *csr_memo : local_csr;

  // Build the run state and attach its pruned auxiliary graph + landmark
  // center index: the engine memo (built and cached on a miss) when the aux
  // cache is on, a local build by the attach otherwise. Plain and regex
  // requests differ only in which run state is built and which step the
  // program runs.
  internal::RunState state;
  internal::RegexRunState regex_state;
  internal::BallProgram program;
  program.dedup = options.dedup;
  program.sink = sink;
  std::shared_ptr<const AuxGraphResult> aux_memo;
  bool aux_miss = false;
  const AuxGraphResult* aux = nullptr;
  uint32_t radius = 0;
  if (query.has_regex()) {
    GPM_RETURN_NOT_OK(internal::BuildRegexRunState(
        query.regex(), g,
        options.radius_override != 0 ? options.radius_override
                                     : query.regex_radius(),
        memo.filter.get(), &regex_state, &program.stats));
    if (!regex_state.proven_empty) {
      radius = regex_state.context.radius;
      aux_memo = LookupAux(query, g, /*minimize_query=*/false, radius, csr,
                           *regex_state.filter, &aux_miss);
      internal::AttachRegexProgram(csr, aux_memo.get(), &regex_state,
                                   &program);
      aux = regex_state.aux;
    }
  } else {
    GPM_RETURN_NOT_OK(internal::BuildRunState(query.pattern(), g, options,
                                              query.prep(), &state,
                                              &program.stats,
                                              memo.filter.get()));
    if (!state.proven_empty) {
      radius = state.radius;
      if (state.filter != nullptr) {
        aux_memo = LookupAux(query, g, options.minimize_query, radius, csr,
                             *state.filter, &aux_miss);
      }
      internal::AttachStrongProgram(csr, aux_memo.get(), &state, &program);
      aux = state.aux;
    }
  }
  const size_t threads = request.policy.kind == ExecPolicy::Kind::kParallel
                             ? internal::ResolveThreads(
                                   request.policy.num_threads)
                             : 1;
  response.subgraphs = internal::RunAlone(&csr, aux, radius, &program,
                                          threads, timer, /*stats=*/nullptr);

  // The memo ledger and the result cache.
  MatchStats& stats = program.stats;
  stats.filter_cache_hits = memo.hit ? 1 : 0;
  stats.filter_cache_misses = memo.miss ? 1 : 0;
  stats.filter_seeded_containment = memo.seeded ? 1 : 0;
  // A memo miss paid the global fixpoint, and an aux memo miss the pruned
  // adjacency + landmark index, on this request's behalf while filling the
  // cache: both go on its ledger.
  if (memo.miss) stats.global_filter_seconds += memo.filter->seconds;
  if (aux_miss) stats.global_filter_seconds += aux_memo->seconds;
  response.subgraphs_delivered = program.delivered;
  response.matched = program.delivered > 0;
  response.seconds = stats.total_seconds;
  if (result_key.has_value()) {
    stats.result_cache_misses = 1;
    caches_->results.Put(*result_key, {response.subgraphs, stats});
    // A freshly materialized plain result makes its pattern a donor for
    // later renamed queries. Regex patterns are never donors (the
    // cross-query scans skip them), so they stay off the roster.
    if (!query.has_regex() &&
        !caches_->cross_query.Contains(query.fingerprint())) {
      caches_->cross_query.Register(
          std::make_shared<const PreparedQuery>(query));
    }
  }
  response.stats = stats;
  return response;
}

Result<IncrementalSession> Engine::OpenIncremental(
    const PreparedQuery& query, const Graph& g,
    IncrementalOptions options) const {
  if (!g.finalized())
    return Status::InvalidArgument("data graph must be finalized");
  if (query.has_regex()) {
    return Status::NotImplemented(
        "incremental maintenance serves plain strong simulation; regex "
        "queries have no incremental executor yet");
  }
  if (!query.strong_status().ok()) return query.strong_status();
  size_t threads = 1;
  switch (options.policy.kind) {
    case ExecPolicy::Kind::kSerial:
      break;
    case ExecPolicy::Kind::kParallel:
      // 0 keeps its ExecPolicy meaning: CreateWithRadius resolves it to
      // hardware concurrency (the one place that rule lives).
      threads = options.policy.num_threads;
      break;
    case ExecPolicy::Kind::kDistributed:
      return Status::NotImplemented(
          "incremental maintenance has no distributed executor: the "
          "maintained state lives in one process; open the session under "
          "ExecPolicy::Serial or ExecPolicy::Parallel");
  }
  // Reuse the prepared compilation: the session's ball radius is the
  // query's precomputed diameter dQ, not a fresh Diameter() pass.
  GPM_ASSIGN_OR_RETURN(
      IncrementalMatcher matcher,
      IncrementalMatcher::CreateWithRadius(query.pattern(), query.diameter(),
                                           g, threads));
  return IncrementalSession(std::move(matcher),
                            std::move(options.delta_sink));
}

std::vector<Result<MatchResponse>> Engine::MatchBatch(
    const Graph& g, std::span<const BatchItem> items) const {
  std::vector<Result<MatchResponse>> out;
  out.reserve(items.size());
  for (const BatchItem& item : items) {
    if (item.query == nullptr) {
      out.emplace_back(Status::InvalidArgument("BatchItem::query is null"));
    } else {
      out.push_back(Dispatch(*item.query, g, item.request,
                             item.sink ? &item.sink : nullptr));
    }
  }
  return out;
}

}  // namespace gpm
