// Regex-strong executor parity suite: the parallel, distributed, and
// streaming regex paths against the serial materialized baseline —
//
//   - batch results byte-identical across 1/2/4/8 threads and every
//     site count/partition (min-center representatives, (center,
//     content-hash) order);
//   - streamed-vs-batch set equality under every Engine policy, with
//     seconds_to_first_subgraph populated and inside the total wall time;
//   - a sink returning stop halts parallel ball workers and distributed
//     sites early without deadlock, and a serial run builds no further
//     ball;
//   - the global regex filter changes nothing but the work done.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/algo_names.h"
#include "api/engine.h"
#include "distributed/distributed_match.h"
#include "extensions/regex_strong.h"
#include "graph/generator.h"
#include "tests/test_util.h"

namespace gpm {
namespace {

using testutil::CanonicalResult;

bool ByteIdentical(const PerfectSubgraph& a, const PerfectSubgraph& b) {
  return a.center == b.center && a.radius == b.radius &&
         a.nodes == b.nodes && a.edges == b.edges &&
         a.relation == b.relation;
}

void ExpectByteIdentical(const std::vector<PerfectSubgraph>& got,
                         const std::vector<PerfectSubgraph>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(ByteIdentical(got[i], want[i]))
        << "result " << i << " differs (center " << got[i].center << " vs "
        << want[i].center << ")";
  }
}

// An edge-typed workload with one regex match per community: pattern
// a(7) =follows^{1..2}=> b(8), b =employs=> a; each community routes the
// follows-path through a label-9 intermediary the match must skip.
RegexQuery FollowsEmploysQuery() {
  Graph q;
  q.AddNode(7);
  q.AddNode(8);
  q.AddEdge(0, 1);
  q.AddEdge(1, 0);
  q.Finalize();
  RegexQuery query(std::move(q));
  EXPECT_TRUE(query.SetConstraint(0, 1, {RegexAtom{1, 1, 2}}).ok());
  EXPECT_TRUE(query.SetConstraint(1, 0, {RegexAtom{2, 1, 1}}).ok());
  return query;
}

Graph ManyCommunities(NodeId n) {
  Graph g;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId person = g.AddNode(7);
    const NodeId via = g.AddNode(9);
    const NodeId boss = g.AddNode(8);
    g.AddEdge(person, via, 1);  // follows
    g.AddEdge(via, boss, 1);    // follows
    g.AddEdge(boss, person, 2); // employs
  }
  g.Finalize();
  return g;
}

// A denser seeded workload where duplicates and misses actually occur.
struct RegexWorkload {
  Graph g;
  std::vector<RegexQuery> queries;
};

RegexWorkload MakeRegexWorkload(uint64_t seed) {
  RegexWorkload w;
  w.g = MakeAmazonLike(/*n=*/250, seed, /*num_labels=*/10);
  Rng rng(seed * 733 + 5);
  for (uint32_t nq = 3; nq <= 4; ++nq) {
    auto q = ExtractPattern(w.g, nq, &rng);
    if (!q.ok()) continue;
    RegexQuery query(std::move(*q));
    const Graph& pattern = query.pattern();
    for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
      for (NodeId v : pattern.OutNeighbors(u)) {
        if (rng.Bernoulli(0.5)) continue;
        EXPECT_TRUE(query
                        .SetConstraint(
                            u, v,
                            {RegexAtom{kAnyEdgeLabel, 1,
                                       1 + static_cast<uint32_t>(
                                               rng.Uniform(2))}})
                        .ok());
      }
    }
    w.queries.push_back(std::move(query));
  }
  return w;
}

TEST(RegexStreamingEquivalenceTest, ParallelBatchByteIdenticalAcrossThreads) {
  const RegexWorkload w = MakeRegexWorkload(11);
  ASSERT_FALSE(w.queries.empty());
  for (const RegexQuery& query : w.queries) {
    MatchStats serial_stats;
    auto serial = MatchStrongRegex(query, w.g, /*radius=*/0, &serial_stats);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MatchStats par_stats;
      auto par = MatchStrongRegexParallel(query, w.g, /*radius=*/0, threads,
                                          &par_stats);
      ASSERT_TRUE(par.ok());
      ExpectByteIdentical(*par, *serial);
      EXPECT_EQ(par_stats.balls_considered, serial_stats.balls_considered);
      EXPECT_EQ(par_stats.subgraphs_found, serial_stats.subgraphs_found);
      EXPECT_EQ(par_stats.duplicates_removed,
                serial_stats.duplicates_removed);
      EXPECT_EQ(par_stats.candidate_pairs_refined,
                serial_stats.candidate_pairs_refined);
    }
  }
}

TEST(RegexStreamingEquivalenceTest, DistributedBatchByteIdenticalToSerial) {
  const RegexWorkload w = MakeRegexWorkload(13);
  ASSERT_FALSE(w.queries.empty());
  for (const RegexQuery& query : w.queries) {
    auto serial = MatchStrongRegex(query, w.g);
    ASSERT_TRUE(serial.ok());
    for (uint32_t sites : {1u, 3u}) {
      for (bool parallel : {true, false}) {
        SCOPED_TRACE("sites=" + std::to_string(sites) +
                     " parallel=" + std::to_string(parallel));
        DistributedOptions options;
        options.num_sites = sites;
        options.parallel = parallel;
        auto distributed =
            MatchStrongRegexDistributed(query, w.g, /*radius=*/0, options);
        ASSERT_TRUE(distributed.ok());
        ExpectByteIdentical(*distributed, *serial);
      }
    }
  }
}

TEST(RegexStreamingEquivalenceTest, GlobalFilterChangesNothingButTheWork) {
  const RegexWorkload w = MakeRegexWorkload(17);
  ASSERT_FALSE(w.queries.empty());
  for (const RegexQuery& query : w.queries) {
    auto filter = ComputeRegexFilter(query, w.g);
    ASSERT_TRUE(filter.ok());
    MatchStats bare_stats, filtered_stats;
    auto bare = MatchStrongRegex(query, w.g, /*radius=*/0, &bare_stats);
    auto filtered = MatchStrongRegex(query, w.g, /*radius=*/0,
                                     &filtered_stats, &*filter);
    ASSERT_TRUE(bare.ok() && filtered.ok());
    ExpectByteIdentical(*filtered, *bare);
    if (filter->proven_empty) {
      EXPECT_TRUE(filtered->empty());
    } else {
      // The filter only prunes: never more balls than the bare scan.
      EXPECT_LE(filtered_stats.balls_considered,
                bare_stats.balls_considered);
    }
  }
}

TEST(RegexStreamingEquivalenceTest, EngineStreamsEqualBatchUnderEveryPolicy) {
  Engine engine;
  const RegexWorkload w = MakeRegexWorkload(19);
  ASSERT_FALSE(w.queries.empty());
  auto prepared = engine.Prepare(w.queries[0]);
  ASSERT_TRUE(prepared.ok());

  MatchRequest reference_request;
  reference_request.algo = Algo::kRegexStrong;
  auto reference = engine.Match(*prepared, w.g, reference_request);
  ASSERT_TRUE(reference.ok());
  const auto want = CanonicalResult(reference->subgraphs);

  for (ExecPolicy policy : {ExecPolicy::Serial(), ExecPolicy::Parallel(4),
                            ExecPolicy::Distributed()}) {
    SCOPED_TRACE(ExecPolicyName(policy.kind));
    MatchRequest request;
    request.algo = Algo::kRegexStrong;
    request.policy = policy;

    auto batch = engine.Match(*prepared, w.g, request);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(CanonicalResult(batch->subgraphs), want);
    EXPECT_EQ(batch->subgraphs_delivered, reference->subgraphs.size());

    std::vector<PerfectSubgraph> streamed;
    auto stream = engine.Match(*prepared, w.g, request,
                               [&streamed](PerfectSubgraph&& pg) {
                                 streamed.push_back(std::move(pg));
                                 return true;
                               });
    ASSERT_TRUE(stream.ok());
    EXPECT_TRUE(stream->subgraphs.empty());
    EXPECT_EQ(stream->subgraphs_delivered, reference->subgraphs.size());
    EXPECT_EQ(CanonicalResult(streamed), want);
    if (stream->subgraphs_delivered > 0) {
      EXPECT_GT(stream->stats.seconds_to_first_subgraph, 0.0);
      EXPECT_LT(stream->stats.seconds_to_first_subgraph, stream->seconds)
          << "first delivery must land before the run completes";
    }
  }
}

// Streams the query's perfect subgraphs over g to `sink` through
// Engine::Match (kRegexStrong, default radius) under
// ExecPolicy::Parallel(threads). Returns the number delivered.
Result<size_t> StreamRegexParallel(const RegexQuery& query, const Graph& g,
                                   size_t threads, const SubgraphSink& sink) {
  Engine engine;
  GPM_ASSIGN_OR_RETURN(PreparedQuery prepared, engine.Prepare(query));
  MatchRequest request;
  request.algo = Algo::kRegexStrong;
  request.policy = ExecPolicy::Parallel(threads);
  GPM_ASSIGN_OR_RETURN(MatchResponse response,
                       engine.Match(prepared, g, request, sink));
  return response.subgraphs_delivered;
}

TEST(RegexStreamingEquivalenceTest, SinkStopHaltsParallelWithoutDeadlock) {
  const Graph g = ManyCommunities(250);
  const RegexQuery query = FollowsEmploysQuery();
  auto full = MatchStrongRegex(query, g);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 3u) << "workload must have several results";
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    size_t seen = 0;
    auto delivered = StreamRegexParallel(
        query, g, threads,
        [&seen](PerfectSubgraph&&) {
          ++seen;
          return false;  // stop after the first
        });
    ASSERT_TRUE(delivered.ok());
    EXPECT_EQ(*delivered, 1u);
    EXPECT_EQ(seen, 1u);
  }
}

TEST(RegexStreamingEquivalenceTest, SerialSinkStopStopsBuildingBalls) {
  // A serial regex sink that stops at the first subgraph: the ball loop
  // must stop scheduling balls, not merely stop delivering.
  Engine engine;
  const Graph g = ManyCommunities(80);
  auto prepared = engine.Prepare(FollowsEmploysQuery());
  ASSERT_TRUE(prepared.ok());
  MatchRequest request;
  request.algo = Algo::kRegexStrong;
  request.policy = ExecPolicy::Serial();
  auto full = engine.Match(*prepared, g, request,
                           [](PerfectSubgraph&&) { return true; });
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->subgraphs_delivered, 3u);
  auto stopped = engine.Match(*prepared, g, request,
                              [](PerfectSubgraph&&) { return false; });
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(stopped->subgraphs_delivered, 1u);
  EXPECT_LT(stopped->stats.balls_considered, full->stats.balls_considered);
}

TEST(RegexStreamingEquivalenceTest, SinkStopHaltsDistributedWithoutDeadlock) {
  const Graph g = ManyCommunities(120);
  const RegexQuery query = FollowsEmploysQuery();
  auto full = MatchStrongRegex(query, g);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 3u);
  for (bool parallel : {true, false}) {
    SCOPED_TRACE("parallel=" + std::to_string(parallel));
    DistributedOptions options;
    options.num_sites = 4;
    options.parallel = parallel;
    size_t seen = 0;
    auto delivered = MatchStrongRegexDistributedStream(
        query, g, /*radius=*/0, options,
        [&seen](PerfectSubgraph&&) {
          ++seen;
          return false;
        },
        nullptr);
    ASSERT_TRUE(delivered.ok());
    EXPECT_EQ(*delivered, 1u);
    EXPECT_EQ(seen, 1u);
  }
}

TEST(RegexStreamingEquivalenceTest, EngineSinkStopAcrossPolicies) {
  Engine engine;
  const Graph g = ManyCommunities(80);
  auto prepared = engine.Prepare(FollowsEmploysQuery());
  ASSERT_TRUE(prepared.ok());
  for (ExecPolicy policy : {ExecPolicy::Serial(), ExecPolicy::Parallel(4),
                            ExecPolicy::Distributed()}) {
    SCOPED_TRACE(ExecPolicyName(policy.kind));
    MatchRequest request;
    request.algo = Algo::kRegexStrong;
    request.policy = policy;
    size_t seen = 0;
    auto stopped = engine.Match(*prepared, g, request,
                                [&seen](PerfectSubgraph&&) {
                                  ++seen;
                                  return false;
                                });
    ASSERT_TRUE(stopped.ok());
    EXPECT_EQ(seen, 1u);
    EXPECT_EQ(stopped->subgraphs_delivered, 1u);
    EXPECT_TRUE(stopped->matched);
  }
}

// The distributed wire path round-trips a RegexQuery faithfully.
TEST(RegexSerializationTest, RoundTripPreservesPatternAndConstraints) {
  const RegexQuery query = FollowsEmploysQuery();
  auto parsed = DeserializeRegexQuery(SerializeRegexQuery(query));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->pattern().StructurallyEqual(query.pattern()));
  EXPECT_EQ(parsed->constraints().size(), query.constraints().size());
  EXPECT_EQ(parsed->ContentHash(), query.ContentHash());
  // Truncations must fail loudly, never parse as a different query.
  const std::string bytes = SerializeRegexQuery(query);
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeRegexQuery(bytes.substr(0, cut)).ok()) << cut;
  }
}

}  // namespace
}  // namespace gpm
