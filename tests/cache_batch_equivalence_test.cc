// Randomized differential harness for the engine's serving path: whatever
// the caches and MatchBatch do internally, every response must stay
// byte-identical to an uncached serial Match — across Serial, Parallel,
// and Distributed, across cold and warm caches, and across batched vs
// lone execution. Plus the invalidation contract: a data graph replaced
// in place is safe once TickDataVersion() is called.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/random.h"
#include "extensions/regex_pattern.h"
#include "graph/generator.h"
#include "tests/test_util.h"

namespace gpm {
namespace {

using testutil::MakeGraph;

// An engine that always computes: the differential baseline.
Engine UncachedEngine() {
  EngineOptions options;
  options.prepared_cache_capacity = 0;
  options.filter_cache_capacity = 0;
  options.regex_filter_cache_capacity = 0;
  options.result_cache_capacity = 0;
  return Engine(options);
}

MatchRequest Request(Algo algo, ExecPolicy policy = ExecPolicy::Serial()) {
  MatchRequest request;
  request.algo = algo;
  request.policy = policy;
  return request;
}

// A batch item whose subgraphs come back materialized (no sink).
BatchItem Item(const PreparedQuery* query, MatchRequest request) {
  return {query, std::move(request), /*sink=*/nullptr};
}

// Byte-level equality of two result sets: centers, radii, node/edge sets,
// and the per-query-node relation — nothing is allowed to drift.
void ExpectSameResults(const std::vector<PerfectSubgraph>& expected,
                       const std::vector<PerfectSubgraph>& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    const PerfectSubgraph& e = expected[i];
    const PerfectSubgraph& a = actual[i];
    EXPECT_EQ(e.center, a.center) << what << " #" << i;
    EXPECT_EQ(e.radius, a.radius) << what << " #" << i;
    EXPECT_EQ(e.nodes, a.nodes) << what << " #" << i;
    EXPECT_EQ(e.edges, a.edges) << what << " #" << i;
    EXPECT_EQ(e.relation.sim, a.relation.sim) << what << " #" << i;
  }
}

// One seeded workload: a small co-purchase-like graph plus a mix of
// extracted (matching) and random (often non-matching) patterns.
struct Workload {
  Graph g;
  std::vector<Graph> patterns;
};

Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.g = MakeAmazonLike(/*n=*/400, seed, /*num_labels=*/12);
  Rng rng(seed * 977 + 11);
  for (int i = 0; i < 2; ++i) {
    auto q = ExtractPattern(w.g, /*nq=*/4 + i, &rng);
    if (q.ok()) w.patterns.push_back(std::move(*q));
  }
  w.patterns.push_back(RandomPattern(/*nq=*/4, /*alphaq=*/1.2,
                                     w.g.DistinctLabels(), seed * 31 + 7));
  return w;
}

const Algo kStrongAlgos[] = {Algo::kStrong, Algo::kStrongPlus};

const ExecPolicy kPolicies[] = {
    ExecPolicy::Serial(),
    ExecPolicy::Parallel(3),
    ExecPolicy::Distributed({.num_sites = 3}),
};

// Cold cache, warm cache, and N-times-warm responses all equal the
// uncached serial baseline, for every (seed, pattern, algo, policy).
TEST(CacheEquivalenceTest, ColdAndWarmMatchUncachedSerial) {
  for (uint64_t seed : {3u, 17u, 52u}) {
    const Workload w = MakeWorkload(seed);
    const Engine baseline_engine = UncachedEngine();
    const Engine cached_engine;  // all caches on (defaults)
    for (const Graph& pattern : w.patterns) {
      auto baseline_q = baseline_engine.Prepare(pattern);
      ASSERT_TRUE(baseline_q.ok());
      auto cached_q = cached_engine.PrepareCached(pattern);
      ASSERT_TRUE(cached_q.ok());
      for (Algo algo : kStrongAlgos) {
        auto baseline =
            baseline_engine.Match(*baseline_q, w.g, Request(algo));
        ASSERT_TRUE(baseline.ok());
        for (const ExecPolicy& policy : kPolicies) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " algo=" + std::to_string(static_cast<int>(algo)) +
                       " policy=" +
                       std::string(ExecPolicyName(policy.kind)));
          auto cold =
              cached_engine.Match(**cached_q, w.g, Request(algo, policy));
          ASSERT_TRUE(cold.ok());
          ExpectSameResults(baseline->subgraphs, cold->subgraphs, "cold");
          for (int repeat = 0; repeat < 2; ++repeat) {
            auto warm =
                cached_engine.Match(**cached_q, w.g, Request(algo, policy));
            ASSERT_TRUE(warm.ok());
            ExpectSameResults(baseline->subgraphs, warm->subgraphs, "warm");
          }
        }
      }
    }
    // Whatever mix of hits/misses the sweep produced, the counters add up.
    const EngineCacheStats stats = cached_engine.cache_stats();
    EXPECT_EQ(stats.prepared.lookups,
              stats.prepared.hits + stats.prepared.misses);
    EXPECT_EQ(stats.filter.lookups,
              stats.filter.hits + stats.filter.misses);
    EXPECT_EQ(stats.results.lookups,
              stats.results.hits + stats.results.misses);
    EXPECT_GT(stats.results.hits, 0u);  // the warm repeats were served
  }
}

// MatchBatch against N lone serial Matches: every item byte-identical,
// for a batch mixing patterns, algos, policies, radius overrides, and a
// relation-notion item — cold and (result-cache-)warm alike.
TEST(BatchEquivalenceTest, BatchMatchesNSingleMatches) {
  for (uint64_t seed : {5u, 29u}) {
    const Workload w = MakeWorkload(seed);
    const Engine baseline_engine = UncachedEngine();
    const Engine batch_engine;

    std::vector<std::shared_ptr<const PreparedQuery>> prepared;
    for (const Graph& pattern : w.patterns) {
      auto pq = batch_engine.PrepareCached(pattern);
      ASSERT_TRUE(pq.ok());
      prepared.push_back(*pq);
    }

    std::vector<BatchItem> items;
    for (const auto& pq : prepared) {
      for (Algo algo : kStrongAlgos) {
        items.push_back(Item(pq.get(), Request(algo)));
        items.push_back(
            Item(pq.get(), Request(algo, ExecPolicy::Parallel(2))));
      }
      // A duplicate request (a result-cache hit within the batch), a
      // radius override, a distributed item, and a relation item.
      items.push_back(Item(pq.get(), Request(Algo::kStrongPlus)));
      MatchRequest radius_one = Request(Algo::kStrong);
      radius_one.options.radius_override = 1;
      items.push_back(Item(pq.get(), radius_one));
      items.push_back(Item(pq.get(), Request(Algo::kStrongPlus,
                                             ExecPolicy::Distributed(
                                                 {.num_sites = 2}))));
      items.push_back(Item(pq.get(), Request(Algo::kDualSimulation)));
    }

    for (int pass = 0; pass < 2; ++pass) {  // pass 1 is result-cache warm
      auto responses = batch_engine.MatchBatch(w.g, items);
      ASSERT_EQ(responses.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " item=" +
                     std::to_string(i) + " pass=" + std::to_string(pass));
        auto lone = baseline_engine.Match(*items[i].query, w.g,
                                          items[i].request);
        ASSERT_EQ(lone.ok(), responses[i].ok());
        if (!lone.ok()) continue;
        ExpectSameResults(lone->subgraphs, responses[i]->subgraphs, "batch");
        EXPECT_EQ(lone->matched, responses[i]->matched);
        EXPECT_EQ(lone->relation.sim, responses[i]->relation.sim);
        EXPECT_EQ(lone->stats.subgraphs_found,
                  responses[i]->stats.subgraphs_found);
        EXPECT_EQ(lone->stats.duplicates_removed,
                  responses[i]->stats.duplicates_removed);
      }
    }
  }
}

// Duplicated strong+ requests in one batch, with the result cache off so
// each runs its own ball loop, all equal a lone cacheless run.
TEST(BatchEquivalenceTest, DuplicateItemsMatchLoneRun) {
  const Workload w = MakeWorkload(19);
  ASSERT_FALSE(w.patterns.empty());
  EngineOptions no_result_cache;
  no_result_cache.result_cache_capacity = 0;
  const Engine engine(no_result_cache);
  auto pq = engine.PrepareCached(w.patterns[0]);
  ASSERT_TRUE(pq.ok());
  auto lone = UncachedEngine().Match(w.patterns[0], w.g,
                                     Request(Algo::kStrongPlus));
  ASSERT_TRUE(lone.ok());
  std::vector<BatchItem> items(3, Item(pq->get(), Request(Algo::kStrongPlus)));
  auto responses = engine.MatchBatch(w.g, items);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok());
    ExpectSameResults(lone->subgraphs, responses[i]->subgraphs,
                      "duplicate item " + std::to_string(i));
  }
}

// The invalidation contract: replacing the data graph *in place* (same
// object, same node/edge counts — only the instance_id distinguishes the
// two) serves fresh answers, never the stale memo; TickDataVersion()
// additionally re-keys everything at once.
TEST(CacheInvalidationTest, TickDataVersionAfterInPlaceMutation) {
  const Graph pattern = MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}, {2, 0}});
  // Same labels and counts; only `with` contains the closed triangle.
  const Graph with = MakeGraph({1, 2, 3, 1, 2, 3},
                               {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
  const Graph without = MakeGraph({1, 2, 3, 1, 2, 3},
                                  {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_EQ(with.num_nodes(), without.num_nodes());
  ASSERT_EQ(with.num_edges(), without.num_edges());

  const Engine engine;
  auto pq = engine.Prepare(pattern);
  ASSERT_TRUE(pq.ok());
  const MatchRequest request = Request(Algo::kStrongPlus);

  Graph g = with;
  auto first = engine.Match(*pq, g, request);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->matched);
  // Warm the caches on this (pattern, g) identity.
  auto warmed = engine.Match(*pq, g, request);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(warmed->stats.result_cache_hits, 1u);

  g = without;  // same Graph object: identical address, counts
  // No tick needed: the replacement carries its own instance_id, so the
  // stale memo is unreachable already.
  auto after = engine.Match(*pq, g, request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.result_cache_hits, 0u);
  EXPECT_FALSE(after->matched);  // the triangle is gone

  auto baseline = UncachedEngine().Match(pattern, g, request);
  ASSERT_TRUE(baseline.ok());
  ExpectSameResults(baseline->subgraphs, after->subgraphs, "post-replace");

  // The coarse switch on top: a tick re-keys even untouched entries, so
  // the next call recomputes (and still agrees).
  const uint64_t version_before = engine.cache_stats().data_version;
  engine.TickDataVersion();
  EXPECT_EQ(engine.cache_stats().data_version, version_before + 1);
  auto post_tick = engine.Match(*pq, g, request);
  ASSERT_TRUE(post_tick.ok());
  EXPECT_EQ(post_tick->stats.result_cache_hits, 0u);
  ExpectSameResults(baseline->subgraphs, post_tick->subgraphs, "post-tick");
}

// Distinct data graphs never need a tick: identity (address) already
// separates them.
TEST(CacheInvalidationTest, DistinctGraphsDoNotCollide) {
  const Graph pattern = MakeGraph({1, 2}, {{0, 1}});
  const Graph g1 = MakeGraph({1, 2, 2}, {{0, 1}, {0, 2}});
  const Graph g2 = MakeGraph({1, 2, 2}, {{0, 1}, {1, 2}});
  const Engine engine;
  auto pq = engine.Prepare(pattern);
  ASSERT_TRUE(pq.ok());
  const MatchRequest request = Request(Algo::kStrongPlus);
  auto r1a = engine.Match(*pq, g1, request);
  auto r2 = engine.Match(*pq, g2, request);
  auto r1b = engine.Match(*pq, g1, request);
  ASSERT_TRUE(r1a.ok() && r2.ok() && r1b.ok());
  ExpectSameResults(r1a->subgraphs, r1b->subgraphs, "same graph");
  auto baseline2 = UncachedEngine().Match(pattern, g2, request);
  ASSERT_TRUE(baseline2.ok());
  ExpectSameResults(baseline2->subgraphs, r2->subgraphs, "other graph");
}

// Many threads sharing one engine (and its caches) against one workload:
// every response equals the baseline, no crashes, counters add up. Run
// under TSAN to verify the cache locking.
TEST(CacheConcurrencyTest, ConcurrentMatchesShareOneEngine) {
  const Workload w = MakeWorkload(41);
  ASSERT_GE(w.patterns.size(), 2u);
  const Engine baseline_engine = UncachedEngine();
  const Engine engine;

  std::vector<std::vector<PerfectSubgraph>> baselines;
  for (const Graph& pattern : w.patterns) {
    auto response =
        baseline_engine.Match(pattern, w.g, Request(Algo::kStrongPlus));
    ASSERT_TRUE(response.ok());
    baselines.push_back(response->subgraphs);
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 5;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const size_t which = (t + round) % w.patterns.size();
        auto pq = engine.PrepareCached(w.patterns[which]);
        if (!pq.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto response =
            engine.Match(**pq, w.g, Request(Algo::kStrongPlus));
        if (!response.ok() ||
            response->subgraphs.size() != baselines[which].size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < baselines[which].size(); ++i) {
          if (!response->subgraphs[i].SameSubgraph(baselines[which][i])) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.prepared.lookups,
            stats.prepared.hits + stats.prepared.misses);
  EXPECT_EQ(stats.results.lookups,
            stats.results.hits + stats.results.misses);
}

// Capacity-1 engine caches thrash correctly: alternating patterns through
// one-slot caches keep evicting each other and answers stay right.
TEST(CacheConcurrencyTest, CapacityOneEngineCachesThrash) {
  const Workload w = MakeWorkload(23);
  ASSERT_GE(w.patterns.size(), 2u);
  EngineOptions tiny;
  tiny.prepared_cache_capacity = 1;
  tiny.filter_cache_capacity = 1;
  tiny.result_cache_capacity = 1;
  const Engine engine(tiny);
  const Engine baseline_engine = UncachedEngine();
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 2; ++i) {
      auto pq = engine.PrepareCached(w.patterns[i]);
      ASSERT_TRUE(pq.ok());
      auto response = engine.Match(**pq, w.g, Request(Algo::kStrongPlus));
      ASSERT_TRUE(response.ok());
      auto baseline =
          baseline_engine.Match(w.patterns[i], w.g, Request(Algo::kStrongPlus));
      ASSERT_TRUE(baseline.ok());
      ExpectSameResults(baseline->subgraphs, response->subgraphs, "thrash");
    }
  }
  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.prepared.evictions, 0u);
  EXPECT_EQ(stats.prepared.lookups,
            stats.prepared.hits + stats.prepared.misses);
}

// ---------------------------------------------------------------------------
// Regex-strong axis: the same differential discipline for kRegexStrong —
// whatever the regex-filter memo, result cache, and MatchBatch do, every
// response must stay byte-identical to an uncached serial Match, across
// Serial/Parallel(1/2/4/8)/Distributed, cold and warm, batched or lone.
// ---------------------------------------------------------------------------

// A seeded regex workload: patterns extracted from the data graph, each
// edge randomly kept as the default wildcard hop or constrained with a
// 1..2-repetition atom — wildcard, the generator's edge label (0, matches
// everything), or an absent label (777, forcing misses).
struct RegexWorkload {
  Graph g;
  std::vector<RegexQuery> queries;
};

RegexWorkload MakeRegexWorkload(uint64_t seed) {
  RegexWorkload w;
  w.g = MakeAmazonLike(/*n=*/220, seed, /*num_labels=*/10);
  Rng rng(seed * 1303 + 29);
  for (uint32_t nq = 3; nq <= 4; ++nq) {
    auto q = ExtractPattern(w.g, nq, &rng);
    if (!q.ok()) continue;
    RegexQuery query(std::move(*q));
    const Graph& pattern = query.pattern();
    for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
      for (NodeId v : pattern.OutNeighbors(u)) {
        if (rng.Bernoulli(0.4)) continue;  // keep the default hop
        RegexAtom atom;
        const uint64_t pick = rng.Uniform(4);
        atom.label = pick == 0 ? 777u : (pick == 1 ? 0u : kAnyEdgeLabel);
        atom.min_reps = 1;
        atom.max_reps = 1 + static_cast<uint32_t>(rng.Uniform(2));
        EXPECT_TRUE(query.SetConstraint(u, v, {atom}).ok());
      }
    }
    w.queries.push_back(std::move(query));
  }
  return w;
}

const ExecPolicy kRegexPolicies[] = {
    ExecPolicy::Serial(),        ExecPolicy::Parallel(1),
    ExecPolicy::Parallel(2),     ExecPolicy::Parallel(4),
    ExecPolicy::Parallel(8),     ExecPolicy::Distributed({.num_sites = 3}),
};

TEST(RegexCacheEquivalenceTest, ColdWarmAndBatchedMatchUncachedSerial) {
  for (uint64_t seed : {7u, 43u}) {
    const RegexWorkload w = MakeRegexWorkload(seed);
    ASSERT_FALSE(w.queries.empty());
    const Engine baseline_engine = UncachedEngine();
    const Engine cached_engine;  // all caches on (defaults)

    std::vector<std::shared_ptr<const PreparedQuery>> cached_queries;
    std::vector<std::vector<PerfectSubgraph>> baselines;
    for (const RegexQuery& query : w.queries) {
      auto baseline_q = baseline_engine.Prepare(query);
      ASSERT_TRUE(baseline_q.ok());
      auto baseline = baseline_engine.Match(*baseline_q, w.g,
                                            Request(Algo::kRegexStrong));
      ASSERT_TRUE(baseline.ok());
      baselines.push_back(baseline->subgraphs);
      auto cached_q = cached_engine.Prepare(query);
      ASSERT_TRUE(cached_q.ok());
      cached_queries.push_back(
          std::make_shared<const PreparedQuery>(std::move(*cached_q)));
    }

    for (size_t i = 0; i < w.queries.size(); ++i) {
      for (const ExecPolicy& policy : kRegexPolicies) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" +
                     std::to_string(i) + " policy=" +
                     std::string(ExecPolicyName(policy.kind)) + "/" +
                     std::to_string(policy.num_threads));
        auto cold = cached_engine.Match(*cached_queries[i], w.g,
                                        Request(Algo::kRegexStrong, policy));
        ASSERT_TRUE(cold.ok());
        ExpectSameResults(baselines[i], cold->subgraphs, "regex cold");
        auto warm = cached_engine.Match(*cached_queries[i], w.g,
                                        Request(Algo::kRegexStrong, policy));
        ASSERT_TRUE(warm.ok());
        ExpectSameResults(baselines[i], warm->subgraphs, "regex warm");
      }
    }
    // The sweep exercised both regex serving-path layers.
    const EngineCacheStats stats = cached_engine.cache_stats();
    EXPECT_GT(stats.regex_filter.hits, 0u);
    EXPECT_GT(stats.results.hits, 0u);
    EXPECT_EQ(stats.regex_filter.lookups,
              stats.regex_filter.hits + stats.regex_filter.misses);

    // Batched: the same requests as one MatchBatch, byte-identical per
    // item (including the Distributed items, which fall back to lone
    // dispatch inside the batch).
    std::vector<BatchItem> items;
    for (const auto& pq : cached_queries) {
      for (const ExecPolicy& policy : kRegexPolicies) {
        items.push_back(Item(pq.get(), Request(Algo::kRegexStrong, policy)));
      }
    }
    auto responses = cached_engine.MatchBatch(w.g, items);
    ASSERT_EQ(responses.size(), items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " item=" +
                   std::to_string(j));
      ASSERT_TRUE(responses[j].ok());
      ExpectSameResults(baselines[j / std::size(kRegexPolicies)],
                        responses[j]->subgraphs, "regex batch");
    }
  }
}

// A regex item over the same extracted pattern as a plain strong item,
// with default (one-hop) constraints, so the weighted radius equals the
// pattern diameter: in one batch, under mixed policies, each item equals
// its lone cacheless run.
TEST(RegexBatchEquivalenceTest, RegexAndPlainItemsMatchLoneRuns) {
  const Workload w = MakeWorkload(31);
  ASSERT_FALSE(w.patterns.empty());
  EngineOptions no_result_cache;
  no_result_cache.result_cache_capacity = 0;
  const Engine engine(no_result_cache);
  const Engine baseline_engine = UncachedEngine();

  auto plain = engine.PrepareCached(w.patterns[0]);
  ASSERT_TRUE(plain.ok());
  auto regex = engine.Prepare(RegexQuery(w.patterns[0]));
  ASSERT_TRUE(regex.ok());
  const PreparedQuery regex_q = std::move(*regex);
  ASSERT_EQ(regex_q.regex_radius(), (*plain)->diameter());

  std::vector<BatchItem> items;
  items.push_back(Item(plain->get(), Request(Algo::kStrong)));
  items.push_back(Item(&regex_q, Request(Algo::kRegexStrong)));
  items.push_back(Item(&regex_q, Request(Algo::kRegexStrong,
                                         ExecPolicy::Parallel(2))));
  auto responses = engine.MatchBatch(w.g, items);
  ASSERT_EQ(responses.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i;
    auto lone = baseline_engine.Match(*items[i].query, w.g, items[i].request);
    ASSERT_TRUE(lone.ok());
    ExpectSameResults(lone->subgraphs, responses[i]->subgraphs,
                      "mixed batch item " + std::to_string(i));
  }
}

// Two regex queries over the same pattern graph but different constraints
// must never serve each other's cached answers (the fingerprint mixes the
// constraint set).
TEST(RegexCacheInvalidationTest, ConstraintChangeReKeysEverything) {
  Graph pattern;
  pattern.AddNode(1);
  pattern.AddNode(2);
  pattern.AddEdge(0, 1, 5);
  pattern.Finalize();
  Graph g;
  g.AddNode(1);
  g.AddNode(9);
  g.AddNode(2);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 5);
  g.Finalize();

  RegexQuery one_hop(pattern);
  ASSERT_TRUE(one_hop.SetConstraint(0, 1, {RegexAtom{5, 1, 1}}).ok());
  RegexQuery two_hop(pattern);
  ASSERT_TRUE(two_hop.SetConstraint(0, 1, {RegexAtom{5, 1, 2}}).ok());

  const Engine engine;
  auto pq_one = engine.Prepare(one_hop);
  auto pq_two = engine.Prepare(two_hop);
  ASSERT_TRUE(pq_one.ok() && pq_two.ok());
  EXPECT_NE(pq_one->fingerprint(), pq_two->fingerprint());

  // Warm the caches on the one-hop query (no match: the only x-path to
  // the b-node takes two hops), then ask the two-hop one (matches).
  auto first = engine.Match(*pq_one, g, Request(Algo::kRegexStrong));
  auto repeat = engine.Match(*pq_one, g, Request(Algo::kRegexStrong));
  ASSERT_TRUE(first.ok() && repeat.ok());
  EXPECT_FALSE(first->matched);
  EXPECT_EQ(repeat->stats.result_cache_hits, 1u);

  auto other = engine.Match(*pq_two, g, Request(Algo::kRegexStrong));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->stats.result_cache_hits, 0u);
  EXPECT_TRUE(other->matched);

  auto baseline = UncachedEngine().Match(*pq_two, g,
                                         Request(Algo::kRegexStrong));
  ASSERT_TRUE(baseline.ok());
  ExpectSameResults(baseline->subgraphs, other->subgraphs,
                    "constraint change");
}

// The regex memos key on the data graph's instance_id: replacing the
// graph in place serves fresh answers without any tick.
TEST(RegexCacheInvalidationTest, InPlaceGraphReplacementServesFreshAnswers) {
  Graph pattern;
  pattern.AddNode(1);
  pattern.AddNode(2);
  pattern.AddEdge(0, 1, 5);
  pattern.Finalize();
  RegexQuery query(pattern);
  ASSERT_TRUE(query.SetConstraint(0, 1, {RegexAtom{5, 1, 2}}).ok());

  auto make_data = [](EdgeLabel second_label) {
    Graph g;
    g.AddNode(1);
    g.AddNode(9);
    g.AddNode(2);
    g.AddEdge(0, 1, 5);
    g.AddEdge(1, 2, second_label);
    g.Finalize();
    return g;
  };

  const Engine engine;
  auto pq = engine.Prepare(query);
  ASSERT_TRUE(pq.ok());
  Graph g = make_data(/*second_label=*/5);
  auto with = engine.Match(*pq, g, Request(Algo::kRegexStrong));
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with->matched);
  auto warmed = engine.Match(*pq, g, Request(Algo::kRegexStrong));
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(warmed->stats.result_cache_hits, 1u);

  g = make_data(/*second_label=*/6);  // same object, the x-path is gone
  auto after = engine.Match(*pq, g, Request(Algo::kRegexStrong));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.result_cache_hits, 0u);
  EXPECT_FALSE(after->matched);
}

// ---------------------------------------------------------------------------
// Cross-query axis: renamed (isomorphic) patterns are served from the
// donor's cached result through the canonical-order witness; specialized
// (contained) patterns seed their dual filter from the container's memo;
// duplicated batch items compute each per-ball dual relation once. Every
// served or seeded answer must stay byte-identical to a cold, cacheless
// run of the same request.
// ---------------------------------------------------------------------------

// Relabels q's nodes through perm (perm[old] = new id), preserving node
// labels and edge labels — a random isomorphic copy.
Graph Permute(const Graph& q, const std::vector<NodeId>& perm) {
  const size_t n = q.num_nodes();
  std::vector<Label> labels(n);
  for (NodeId u = 0; u < n; ++u) labels[perm[u]] = q.label(u);
  Graph out;
  for (Label l : labels) out.AddNode(l);
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = q.OutNeighbors(u);
    const auto elabels = q.OutEdgeLabels(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out.AddEdge(perm[u], perm[nbrs[i]], elabels[i]);
    }
  }
  out.Finalize();
  return out;
}

// A renamed copy of q guaranteed to carry a different exact content hash
// (so the prepared/result caches cannot serve it as an exact repeat).
Graph RenamedCopy(const Graph& q, Rng* rng) {
  const size_t n = q.num_nodes();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<NodeId> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng->Uniform(i)]);
    }
    Graph renamed = Permute(q, perm);
    if (renamed.ContentHash() != q.ContentHash()) return renamed;
  }
  ADD_FAILURE() << "could not find a non-trivial renaming";
  return q;
}

// Specializes q: a copy with an extra fresh-label path hung off node 0 —
// dual-contained in q via the identity embedding.
Graph Specialize(const Graph& q, size_t extra_nodes) {
  Graph out;
  for (NodeId u = 0; u < q.num_nodes(); ++u) out.AddNode(q.label(u));
  for (NodeId u = 0; u < q.num_nodes(); ++u) {
    const auto nbrs = q.OutNeighbors(u);
    const auto elabels = q.OutEdgeLabels(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out.AddEdge(u, nbrs[i], elabels[i]);
    }
  }
  Label fresh = 1;
  for (NodeId u = 0; u < q.num_nodes(); ++u) {
    fresh = std::max(fresh, static_cast<Label>(q.label(u) + 1));
  }
  NodeId tail = 0;
  for (size_t i = 0; i < extra_nodes; ++i) {
    const NodeId fresh_node = out.AddNode(fresh + static_cast<Label>(i));
    out.AddEdge(tail, fresh_node);
    tail = fresh_node;
  }
  out.Finalize();
  return out;
}

// A renamed pattern is answered from the isomorphic donor's cached
// result — flagged as such — and equals the cacheless cold run, lone and
// batched, Serial and Parallel.
TEST(CrossQueryEquivalenceTest, RenamedPatternServedFromCachedResult) {
  for (uint64_t seed : {11u, 37u}) {
    Rng rng(seed * 57 + 3);
    const Graph g = MakeAmazonLike(/*n=*/400, seed, /*num_labels=*/12);
    auto q = ExtractPattern(g, /*nq=*/4, &rng);
    ASSERT_TRUE(q.ok());
    const Graph renamed = RenamedCopy(*q, &rng);
    const Engine baseline_engine = UncachedEngine();
    for (Algo algo : kStrongAlgos) {
      for (const ExecPolicy& policy :
           {ExecPolicy::Serial(), ExecPolicy::Parallel(3)}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " algo=" +
                     std::to_string(static_cast<int>(algo)) + " policy=" +
                     std::string(ExecPolicyName(policy.kind)));
        const Engine engine;  // fresh roster per combination
        auto donor = engine.PrepareCached(*q);
        ASSERT_TRUE(donor.ok());
        auto cold = engine.Match(**donor, g, Request(algo, policy));
        ASSERT_TRUE(cold.ok());

        auto caller = engine.PrepareCached(renamed);
        ASSERT_TRUE(caller.ok());
        EXPECT_NE((*caller)->fingerprint(), (*donor)->fingerprint());
        EXPECT_EQ((*caller)->canonical_fingerprint(),
                  (*donor)->canonical_fingerprint());

        auto lone = baseline_engine.Match(renamed, g, Request(algo, policy));
        ASSERT_TRUE(lone.ok());

        auto served = engine.Match(**caller, g, Request(algo, policy));
        ASSERT_TRUE(served.ok());
        EXPECT_EQ(served->stats.result_served_equivalent, 1u);
        EXPECT_EQ(served->stats.result_cache_hits, 1u);
        ExpectSameResults(lone->subgraphs, served->subgraphs,
                          "renamed lone");
        EXPECT_EQ(engine.cache_stats().equivalent_result_hits, 1u);

        // The same serve works from inside MatchBatch.
        std::vector<BatchItem> items;
        items.push_back(Item(caller->get(), Request(algo, policy)));
        auto batch = engine.MatchBatch(g, items);
        ASSERT_EQ(batch.size(), 1u);
        ASSERT_TRUE(batch[0].ok());
        EXPECT_EQ(batch[0]->stats.result_served_equivalent, 1u);
        ExpectSameResults(lone->subgraphs, batch[0]->subgraphs,
                          "renamed batch");
        EXPECT_EQ(engine.cache_stats().equivalent_result_hits, 2u);
      }
    }
  }
}

// A specialized (dual-contained) pattern starts its fixpoint from the
// container's memoized survivors — flagged as seeded — and the answer
// equals the cacheless cold run across policies and algos.
TEST(CrossQueryEquivalenceTest, ContainedPatternSeededFromDonorFilter) {
  for (uint64_t seed : {9u, 23u, 58u}) {
    Rng rng(seed * 413 + 7);
    const Graph g = MakeAmazonLike(/*n=*/350, seed, /*num_labels=*/10);
    auto q = ExtractPattern(g, /*nq=*/4, &rng);
    ASSERT_TRUE(q.ok());
    const Graph spec = Specialize(*q, /*extra_nodes=*/2);
    const Engine baseline_engine = UncachedEngine();
    // Two seeding shapes: the bare filter (kStrong + dual_filter, no
    // quotient) and the full §4.2 pipeline (kStrongPlus minimizes, so the
    // donor survivors are translated between the minimized patterns).
    MatchRequest filter_only = Request(Algo::kStrong);
    filter_only.options.dual_filter = true;
    const MatchRequest variants[] = {filter_only,
                                     Request(Algo::kStrongPlus)};
    for (const MatchRequest& base : variants) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " algo=" +
                   std::to_string(static_cast<int>(base.algo)));
      const Engine engine;
      auto donor = engine.PrepareCached(*q);
      ASSERT_TRUE(donor.ok());
      // Materialize the donor's dual filter in the memo.
      auto warm = engine.Match(**donor, g, base);
      ASSERT_TRUE(warm.ok());

      auto caller = engine.PrepareCached(spec);
      ASSERT_TRUE(caller.ok());
      auto seeded = engine.Match(**caller, g, base);
      ASSERT_TRUE(seeded.ok());
      EXPECT_EQ(seeded->stats.filter_seeded_containment, 1u);
      EXPECT_EQ(seeded->stats.result_served_equivalent, 0u);
      auto lone = baseline_engine.Match(spec, g, base);
      ASSERT_TRUE(lone.ok());
      ExpectSameResults(lone->subgraphs, seeded->subgraphs, "seeded serial");

      // Parallel reuses the (identical) memoized filter — still equal.
      MatchRequest parallel_request = base;
      parallel_request.policy = ExecPolicy::Parallel(3);
      auto parallel = engine.Match(**caller, g, parallel_request);
      ASSERT_TRUE(parallel.ok());
      auto lone_parallel = baseline_engine.Match(spec, g, parallel_request);
      ASSERT_TRUE(lone_parallel.ok());
      ExpectSameResults(lone_parallel->subgraphs, parallel->subgraphs,
                        "seeded parallel");
      EXPECT_GT(engine.cache_stats().containment_filter_seeds, 0u);
    }
  }
}

// Duplicated batch items — by pointer and by structural equality — give
// answers identical to lone cacheless runs.
TEST(CrossQueryBatchTest, DuplicateAndEqualItemsMatchLoneRun) {
  const Workload w = MakeWorkload(83);
  ASSERT_FALSE(w.patterns.empty());
  EngineOptions no_result_cache;
  no_result_cache.result_cache_capacity = 0;
  const Engine engine(no_result_cache);
  const Engine baseline_engine = UncachedEngine();
  // Two distinct PreparedQuery objects over one pattern.
  auto pq1 = engine.Prepare(w.patterns[0]);
  auto pq2 = engine.Prepare(w.patterns[0]);
  ASSERT_TRUE(pq1.ok() && pq2.ok());
  for (const ExecPolicy& policy :
       {ExecPolicy::Serial(), ExecPolicy::Parallel(3)}) {
    SCOPED_TRACE(std::string("policy=") + ExecPolicyName(policy.kind));
    auto lone = baseline_engine.Match(w.patterns[0], w.g,
                                      Request(Algo::kStrongPlus, policy));
    ASSERT_TRUE(lone.ok());
    std::vector<BatchItem> items;
    items.push_back(Item(&*pq1, Request(Algo::kStrongPlus, policy)));
    items.push_back(Item(&*pq1, Request(Algo::kStrongPlus, policy)));
    items.push_back(Item(&*pq2, Request(Algo::kStrongPlus, policy)));
    auto responses = engine.MatchBatch(w.g, items);
    ASSERT_EQ(responses.size(), items.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << i;
      ExpectSameResults(lone->subgraphs, responses[i]->subgraphs,
                        "duplicate item " + std::to_string(i));
    }
  }
}

// Permuted isomorphic patterns occupy one prepared-cache slot; the
// renamed compile stays a function of its own numbering and exact
// repeats still hit.
TEST(CrossQueryCacheTest, PrepareCachedDedupsRenamedPatterns) {
  Rng rng(777);
  const Graph g = MakeAmazonLike(/*n=*/300, /*seed=*/777, /*num_labels=*/9);
  auto q = ExtractPattern(g, /*nq=*/5, &rng);
  ASSERT_TRUE(q.ok());
  const Graph renamed = RenamedCopy(*q, &rng);

  const Engine engine;
  auto a = engine.PrepareCached(*q);
  auto b = engine.PrepareCached(renamed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->fingerprint(), (*b)->fingerprint());
  EXPECT_EQ((*a)->canonical_fingerprint(), (*b)->canonical_fingerprint());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(engine.cache_stats().prepared.entries, 1u);

  auto c = engine.PrepareCached(*q);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->get(), c->get());
  EXPECT_EQ(engine.cache_stats().prepared.entries, 1u);
}

// Streaming (sink) calls bypass the result cache: they must deliver the
// dedup'd set even right after a materialized answer was cached.
TEST(CacheEquivalenceTest, StreamingStillDeliversAfterResultCached) {
  const Workload w = MakeWorkload(61);
  ASSERT_FALSE(w.patterns.empty());
  const Engine engine;
  auto pq = engine.PrepareCached(w.patterns[0]);
  ASSERT_TRUE(pq.ok());
  auto batch = engine.Match(**pq, w.g, Request(Algo::kStrongPlus));
  ASSERT_TRUE(batch.ok());

  std::vector<PerfectSubgraph> streamed;
  auto stream = engine.Match(**pq, w.g, Request(Algo::kStrongPlus),
                             [&streamed](PerfectSubgraph&& pg) {
                               streamed.push_back(std::move(pg));
                               return true;
                             });
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->stats.result_cache_hits, 0u);
  ExpectSameResults(batch->subgraphs, streamed, "stream-after-cache");
}

// Regex patterns never donate (both cross-query scans skip them), so a
// regex-only MatchBatch leaves the cross-query roster as it was: a
// registration would only copy the query and could evict a plain donor.
TEST(CrossQueryBatchTest, RegexOnlyBatchLeavesRosterAlone) {
  const RegexWorkload w = MakeRegexWorkload(7);
  ASSERT_FALSE(w.queries.empty());
  const Engine engine;
  std::vector<PreparedQuery> prepared;
  for (const RegexQuery& query : w.queries) {
    auto pq = engine.Prepare(query);
    ASSERT_TRUE(pq.ok());
    prepared.push_back(std::move(*pq));
  }
  std::vector<BatchItem> items;
  for (const PreparedQuery& pq : prepared) {
    items.push_back({&pq, Request(Algo::kRegexStrong), {}});
  }
  const size_t before = engine.cache_stats().cross_query_entries;
  auto responses = engine.MatchBatch(w.g, items);
  ASSERT_EQ(responses.size(), items.size());
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  EXPECT_EQ(engine.cache_stats().cross_query_entries, before);
}

// Streaming and materialized items in one batch, each run as its lone
// Match: a sink that stops after one subgraph gets exactly one, a sink
// that runs to the end gets the lone Match set, a materialized item equals
// a lone cacheless Match, and its later duplicate is served from the
// result cache the first one filled.
TEST(BatchStreamingTest, StreamingAndMaterializedItemsInOneBatch) {
  // A workload pattern with at least two perfect subgraphs, so stopping
  // after the first one is observable.
  Workload w;
  const Graph* pattern = nullptr;
  std::vector<PerfectSubgraph> lone;
  for (uint64_t seed : {41u, 5u, 17u, 29u, 52u}) {
    w = MakeWorkload(seed);
    for (const Graph& q : w.patterns) {
      auto response =
          UncachedEngine().Match(q, w.g, Request(Algo::kStrongPlus));
      ASSERT_TRUE(response.ok());
      if (response->subgraphs.size() >= 2) {
        pattern = &q;
        lone = std::move(response->subgraphs);
        break;
      }
    }
    if (pattern != nullptr) break;
  }
  ASSERT_NE(pattern, nullptr);

  const Engine engine;  // result cache on
  auto pq = engine.Prepare(*pattern);
  ASSERT_TRUE(pq.ok());
  const MatchRequest request = Request(Algo::kStrongPlus);
  size_t stopped_delivered = 0;
  std::vector<PerfectSubgraph> streamed;
  std::vector<BatchItem> items;
  items.push_back({&*pq, request, [&stopped_delivered](PerfectSubgraph&&) {
                     ++stopped_delivered;
                     return false;
                   }});
  items.push_back({&*pq, request, [&streamed](PerfectSubgraph&& pg) {
                     streamed.push_back(std::move(pg));
                     return true;
                   }});
  items.push_back(Item(&*pq, request));
  items.push_back(Item(&*pq, request));
  auto responses = engine.MatchBatch(w.g, items);
  ASSERT_EQ(responses.size(), items.size());
  for (const auto& response : responses) ASSERT_TRUE(response.ok());

  EXPECT_EQ(stopped_delivered, 1u);
  EXPECT_EQ(responses[0]->subgraphs_delivered, 1u);
  EXPECT_TRUE(responses[0]->subgraphs.empty());

  ExpectSameResults(lone, streamed, "streamed item");
  EXPECT_EQ(responses[1]->subgraphs_delivered, lone.size());
  EXPECT_TRUE(responses[1]->subgraphs.empty());

  ExpectSameResults(lone, responses[2]->subgraphs, "materialized item");
  EXPECT_EQ(responses[2]->stats.result_cache_hits, 0u);
  ExpectSameResults(lone, responses[3]->subgraphs, "duplicate item");
  EXPECT_EQ(responses[3]->stats.result_cache_hits, 1u);
}

}  // namespace
}  // namespace gpm
