// Determinism + streaming equivalence suite (the serving-path contract):
//
//   - batch results are byte-identical — same representatives, same order,
//     same relations — across 1/2/4/8 threads and the distributed runtime;
//   - MatchStats counters agree with the serial run for every executor;
//   - streaming delivers the same dedup'd set as batch under every policy,
//     with seconds_to_first_subgraph strictly inside the total wall time;
//   - a sink returning stop halts Parallel and Distributed runs early
//     without deadlock (BoundedQueue / MessageBus shutdown paths), and a
//     Serial run builds no further ball.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/algo_names.h"
#include "api/engine.h"
#include "distributed/distributed_match.h"
#include "graph/generator.h"
#include "graph/paper_graphs.h"
#include "matching/parallel_match.h"
#include "matching/strong_simulation.h"
#include "quality/workloads.h"
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

void ExpectCountersEqual(const MatchStats& got, const MatchStats& want) {
  EXPECT_EQ(got.balls_considered, want.balls_considered);
  EXPECT_EQ(got.balls_skipped_filter, want.balls_skipped_filter);
  EXPECT_EQ(got.balls_skipped_pruning, want.balls_skipped_pruning);
  EXPECT_EQ(got.balls_center_unmatched, want.balls_center_unmatched);
  EXPECT_EQ(got.subgraphs_found, want.subgraphs_found);
  EXPECT_EQ(got.duplicates_removed, want.duplicates_removed);
  EXPECT_EQ(got.candidate_pairs_refined, want.candidate_pairs_refined);
}

// Sorted content view of a streamed (arrival-order) result list.
std::vector<PerfectSubgraph> SortedByContent(std::vector<PerfectSubgraph> v) {
  std::sort(v.begin(), v.end(),
            [](const PerfectSubgraph& a, const PerfectSubgraph& b) {
              if (a.nodes != b.nodes) return a.nodes < b.nodes;
              return a.edges < b.edges;
            });
  return v;
}

// Streams q's perfect subgraphs over g to `sink` through Engine::Match
// (kStrong, default options) under ExecPolicy::Parallel(threads). Returns
// the number delivered; the run's stats land in *stats when non-null.
Result<size_t> StreamParallel(const Graph& q, const Graph& g, size_t threads,
                              const SubgraphSink& sink, MatchStats* stats) {
  Engine engine;
  GPM_ASSIGN_OR_RETURN(PreparedQuery prepared, engine.Prepare(q));
  MatchRequest request;
  request.algo = Algo::kStrong;
  request.policy = ExecPolicy::Parallel(threads);
  GPM_ASSIGN_OR_RETURN(MatchResponse response,
                       engine.Match(prepared, g, request, sink));
  if (stats != nullptr) *stats = response.stats;
  return response.subgraphs_delivered;
}

TEST(StreamingEquivalenceTest, BatchParallelIsByteIdenticalAcrossThreadCounts) {
  const Graph g = MakeAmazonLike(700, /*seed=*/21);
  auto patterns = MakePatternWorkload(g, 5, 2, /*seed=*/31);
  ASSERT_FALSE(patterns.empty());
  for (const Graph& q : patterns) {
    for (bool dedup : {true, false}) {
      MatchOptions options;
      options.dedup = dedup;
      MatchStats serial_stats;
      auto serial = MatchStrong(q, g, options, &serial_stats);
      ASSERT_TRUE(serial.ok());
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " dedup=" + std::to_string(dedup));
        MatchStats par_stats;
        auto par = MatchStrongParallel(q, g, options, threads, &par_stats);
        ASSERT_TRUE(par.ok());
        ExpectByteIdentical(*par, *serial);
        ExpectCountersEqual(par_stats, serial_stats);
      }
    }
  }
}

TEST(StreamingEquivalenceTest, DistributedBatchIsByteIdenticalToSerial) {
  const Graph g = MakeAmazonLike(500, /*seed=*/23);
  auto patterns = MakePatternWorkload(g, 4, 2, /*seed=*/37);
  ASSERT_FALSE(patterns.empty());
  for (const Graph& q : patterns) {
    auto serial = MatchStrong(q, g);
    ASSERT_TRUE(serial.ok());
    for (uint32_t sites : {1u, 3u}) {
      for (bool parallel : {true, false}) {
        SCOPED_TRACE("sites=" + std::to_string(sites) +
                     " parallel=" + std::to_string(parallel));
        DistributedOptions options;
        options.num_sites = sites;
        options.parallel = parallel;
        auto distributed = MatchStrongDistributed(q, g, options);
        ASSERT_TRUE(distributed.ok());
        ExpectByteIdentical(*distributed, *serial);
      }
    }
  }
}

TEST(StreamingEquivalenceTest, ParallelStreamDeliversTheBatchSet) {
  const Graph g = MakeAmazonLike(700, /*seed=*/21);
  auto patterns = MakePatternWorkload(g, 5, 2, /*seed=*/31);
  ASSERT_FALSE(patterns.empty());
  for (const Graph& q : patterns) {
    MatchStats serial_stats;
    auto serial = MatchStrong(q, g, {}, &serial_stats);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::vector<PerfectSubgraph> streamed;
      MatchStats stream_stats;
      auto delivered = StreamParallel(
          q, g, threads,
          [&streamed](PerfectSubgraph&& pg) {
            streamed.push_back(std::move(pg));
            return true;
          },
          &stream_stats);
      ASSERT_TRUE(delivered.ok());
      EXPECT_EQ(*delivered, serial->size());
      // Arrival order varies; the delivered set must not.
      EXPECT_EQ(CanonicalResult(streamed), CanonicalResult(*serial));
      EXPECT_EQ(SortedByContent(streamed).size(), serial->size());
      ExpectCountersEqual(stream_stats, serial_stats);
      if (*delivered > 0) {
        EXPECT_GT(stream_stats.seconds_to_first_subgraph, 0.0);
        EXPECT_LE(stream_stats.seconds_to_first_subgraph,
                  stream_stats.total_seconds);
      }
    }
  }
}

TEST(StreamingEquivalenceTest, DistributedStreamDeliversTheBatchSet) {
  const Graph g = MakeAmazonLike(500, /*seed=*/23);
  auto patterns = MakePatternWorkload(g, 4, 2, /*seed=*/37);
  ASSERT_FALSE(patterns.empty());
  for (const Graph& q : patterns) {
    auto serial = MatchStrong(q, g);
    ASSERT_TRUE(serial.ok());
    for (bool parallel : {true, false}) {
      SCOPED_TRACE("parallel=" + std::to_string(parallel));
      DistributedOptions options;
      options.num_sites = 3;
      options.parallel = parallel;
      std::vector<PerfectSubgraph> streamed;
      DistributedStats stats;
      auto delivered = MatchStrongDistributedStream(
          q, g, options,
          [&streamed](PerfectSubgraph&& pg) {
            streamed.push_back(std::move(pg));
            return true;
          },
          &stats);
      ASSERT_TRUE(delivered.ok());
      EXPECT_EQ(*delivered, serial->size());
      EXPECT_EQ(CanonicalResult(streamed), CanonicalResult(*serial));
      if (*delivered > 0) {
        EXPECT_GT(stats.seconds_to_first_result, 0.0);
        EXPECT_LE(stats.seconds_to_first_result, stats.seconds);
      }
    }
  }
}

TEST(StreamingEquivalenceTest, EngineStreamsForEveryStrongAlgoAndPolicy) {
  // Engine-level: every strong-family algo × policy × {sink, no-sink}
  // combination returns/delivers the same dedup'd Θ.
  Engine engine;
  const Graph g = MakeAmazonLike(600, /*seed=*/5);
  auto patterns = MakePatternWorkload(g, 5, 1, /*seed=*/99);
  ASSERT_FALSE(patterns.empty());
  auto prepared = engine.Prepare(patterns[0]);
  ASSERT_TRUE(prepared.ok());

  for (Algo algo : {Algo::kStrong, Algo::kStrongPlus}) {
    MatchRequest reference_request;
    reference_request.algo = algo;
    auto reference = engine.Match(*prepared, g, reference_request);
    ASSERT_TRUE(reference.ok());
    const auto want = CanonicalResult(reference->subgraphs);

    for (ExecPolicy policy : {ExecPolicy::Serial(), ExecPolicy::Parallel(4),
                              ExecPolicy::Distributed()}) {
      SCOPED_TRACE(std::string(AlgoName(algo)) + "/" +
                   ExecPolicyName(policy.kind));
      MatchRequest request;
      request.algo = algo;
      request.policy = policy;

      auto batch = engine.Match(*prepared, g, request);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(CanonicalResult(batch->subgraphs), want);
      EXPECT_EQ(batch->subgraphs_delivered, reference->subgraphs.size());

      std::vector<PerfectSubgraph> streamed;
      auto stream = engine.Match(*prepared, g, request,
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
}

// A pattern triangle over labels 1-2-3 and a data graph of `n` disjoint
// copies of it: n distinct perfect subgraphs, 3n matching ball centers —
// a workload where an early stop always strands unprocessed work.
Graph TrianglePatternGraph() {
  return testutil::MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}, {2, 0}});
}

Graph ManyTriangles(NodeId n) {
  Graph g;
  for (NodeId i = 0; i < n; ++i) {
    NodeId a = g.AddNode(1), b = g.AddNode(2), c = g.AddNode(3);
    g.AddEdge(a, b);
    g.AddEdge(b, c);
    g.AddEdge(c, a);
  }
  g.Finalize();
  return g;
}

TEST(StreamingEquivalenceTest, SinkStopHaltsParallelWithoutDeadlock) {
  // Plenty of balls and results: the stop lands while shards still hold
  // unprocessed centers, exercising cancellation + queue shutdown. Would
  // deadlock (and time out) if a blocked producer were never woken.
  const Graph g = ManyTriangles(300);
  const Graph q = TrianglePatternGraph();
  auto full = MatchStrong(q, g);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 3u) << "workload must have several results";
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    size_t seen = 0;
    auto delivered = StreamParallel(
        q, g, threads,
        [&seen](PerfectSubgraph&&) {
          ++seen;
          return false;  // stop after the first
        },
        nullptr);
    ASSERT_TRUE(delivered.ok());
    EXPECT_EQ(*delivered, 1u);
    EXPECT_EQ(seen, 1u);
  }
}

TEST(StreamingEquivalenceTest, SerialSinkStopStopsBuildingBalls) {
  // A serial sink that stops at the first subgraph: the ball loop must stop
  // scheduling balls, not merely stop delivering.
  Engine engine;
  const Graph g = ManyTriangles(100);
  auto prepared = engine.Prepare(TrianglePatternGraph());
  ASSERT_TRUE(prepared.ok());
  MatchRequest request;
  request.algo = Algo::kStrong;
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

TEST(StreamingEquivalenceTest, SinkStopHaltsDistributedWithoutDeadlock) {
  const Graph g = ManyTriangles(150);
  const Graph q = TrianglePatternGraph();
  auto full = MatchStrong(q, g);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 3u);
  for (bool parallel : {true, false}) {
    SCOPED_TRACE("parallel=" + std::to_string(parallel));
    DistributedOptions options;
    options.num_sites = 4;
    options.parallel = parallel;
    size_t seen = 0;
    auto delivered = MatchStrongDistributedStream(
        q, g, options,
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

TEST(StreamingEquivalenceTest, EngineSinkStopAcrossPolicies) {
  Engine engine;
  const Graph g = ManyTriangles(100);
  const Graph q = TrianglePatternGraph();
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  for (ExecPolicy policy : {ExecPolicy::Serial(), ExecPolicy::Parallel(4),
                            ExecPolicy::Distributed()}) {
    SCOPED_TRACE(ExecPolicyName(policy.kind));
    MatchRequest request;
    request.algo = Algo::kStrong;
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

}  // namespace
}  // namespace gpm
