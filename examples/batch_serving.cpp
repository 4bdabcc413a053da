// Serving with caches and batches: one engine answering a repeated query
// mix against a co-purchase-style graph — the workload PrepareCached, the
// dual-filter memo, and MatchBatch exist for.
//
//   cmake -B build -S . && cmake --build build
//   ./build/examples/batch_serving

#include <cstdio>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/generator.h"

int main() {
  using namespace gpm;

  // A synthetic co-purchase network and a mix of product-neighborhood
  // patterns extracted from it (so every query has matches to serve).
  const Graph g = MakeAmazonLike(/*n=*/4000, /*seed=*/7, /*num_labels=*/40);
  Rng rng(99);
  std::vector<Graph> patterns;
  for (int i = 0; i < 4; ++i) {
    auto q = ExtractPattern(g, /*nq=*/6, &rng);
    if (q.ok()) patterns.push_back(std::move(*q));
  }
  std::printf("data graph: %zu nodes, %zu edges; %zu patterns\n\n",
              g.num_nodes(), g.num_edges(), patterns.size());

  Engine engine;
  MatchRequest request;  // strong+ under Serial, the serving default

  // Request wave 1 (cold): every PrepareCached compiles, every Match pays
  // the global dual filter. Wave 2 (warm): both served from the caches.
  for (int wave = 1; wave <= 2; ++wave) {
    Timer timer;
    size_t results = 0;
    for (const Graph& q : patterns) {
      auto prepared = engine.PrepareCached(q);
      if (!prepared.ok()) continue;
      auto response = engine.Match(**prepared, g, request);
      if (response.ok()) results += response->subgraphs.size();
    }
    std::printf("wave %d: %zu results in %.4fs\n", wave, results,
                timer.Seconds());
  }
  const EngineCacheStats cache = engine.cache_stats();
  std::printf("caches: prepared %llu/%llu hits, filter %llu/%llu hits\n\n",
              static_cast<unsigned long long>(cache.prepared.hits),
              static_cast<unsigned long long>(cache.prepared.lookups),
              static_cast<unsigned long long>(cache.filter.hits),
              static_cast<unsigned long long>(cache.filter.lookups));

  // A burst of in-flight requests — the same patterns, twice each — as one
  // MatchBatch on a fresh engine. Items run in order, each exactly as a
  // lone Match, so the first copy of each pattern runs its ball loop and
  // the repeat is answered from the result cache the first copy filled.
  Engine batch_engine;
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const Graph& q : patterns) {
    auto pq = batch_engine.PrepareCached(q);
    if (pq.ok()) prepared.push_back(*pq);
  }
  std::vector<BatchItem> items;
  for (int dup = 0; dup < 2; ++dup) {
    for (const auto& pq : prepared) items.push_back({pq.get(), request, {}});
  }
  auto responses = batch_engine.MatchBatch(g, items);
  size_t cached = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) continue;
    const bool hit = responses[i]->stats.result_cache_hits > 0;
    std::printf("batch item %zu: %zu subgraph(s)%s\n", i,
                responses[i]->subgraphs.size(), hit ? ", cached" : "");
    if (hit) ++cached;
  }
  std::printf("\n%zu requests, %zu answered from the result cache\n",
              items.size(), cached);
  return 0;
}
