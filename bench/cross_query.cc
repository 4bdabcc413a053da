// Cross-query reuse benchmark: what the containment-aware engine buys
// when the request stream contains *related* — not byte-identical —
// queries, the serving shape the exact-match caches cannot help with.
//
//   1. cold vs renamed hit: the same pattern under a permuted node
//      numbering. The exact result cache misses (different content hash),
//      but the canonical-fingerprint roster finds the isomorphic donor and
//      serves its materialized result through the witness renaming.
//      Acceptance gate: the renamed warm hit runs >= 5x faster than the
//      cold execution and is flagged result_served_equivalent.
//   2. contained seeding: a specialized pattern (the donor plus extra
//      constraints) starts its §4.2 global dual filter from the donor's
//      memoized survivor sets instead of whole label classes — flagged
//      filter_seeded_containment, byte-identical results.
//   3. batch vs singles: duplicate in-flight items in one MatchBatch,
//      which runs each item as a lone Match, against the same requests as
//      lone Match calls; the results must be identical.
//
// Emits BENCH_cross_query.json for tools/bench_trend.py.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "quality/table_printer.h"

namespace {

using namespace gpm;

// Relabels q's nodes through a random non-identity permutation, keeping
// node and edge labels — an isomorphic copy with a different content
// hash.
Graph RenamedCopy(const Graph& q, Rng* rng) {
  const size_t n = q.num_nodes();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<NodeId> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng->Uniform(i)]);
    }
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
    if (out.ContentHash() != q.ContentHash()) return out;
  }
  return q;
}

// The donor pattern plus a short extra path off node 0, reusing the
// donor's own labels (so the specialization can still match in g):
// contained in the donor via the identity embedding, so its filter can
// be seeded.
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
  NodeId tail = 0;
  for (size_t i = 0; i < extra_nodes; ++i) {
    const NodeId extra =
        out.AddNode(q.label(static_cast<NodeId>(i % q.num_nodes())));
    out.AddEdge(tail, extra);
    tail = extra;
  }
  out.Finalize();
  return out;
}

}  // namespace

int main() {
  using namespace gpm;
  const BenchScale scale = BenchScale::FromEnv();
  bench::PrintHeader("Cross-query reuse",
                     "equivalent serving / containment seeding / batching",
                     scale);

  const uint32_t n = scale.Pick(6000, 100000);
  const Graph g = MakeDataset(DatasetKind::kAmazonLike, n, /*seed=*/71, 1.2,
                              ScaledLabelCount(n));
  const std::vector<Graph> patterns =
      MakePatternWorkload(g, /*nq=*/8, /*count=*/4, /*seed=*/15000);
  if (patterns.empty()) {
    std::printf("no pattern extracted\n");
    return 1;
  }
  std::printf("amazon-like |V| = %s, |E| = %s, %zu patterns of 8 nodes, "
              "algo strong+\n\n",
              WithThousandsSeparators(g.num_nodes()).c_str(),
              WithThousandsSeparators(g.num_edges()).c_str(),
              patterns.size());

  bench::JsonReport report("cross_query");
  const MatchRequest request = bench::RequestFor(Algo::kStrongPlus);
  Rng rng(4099);

  // -- 1. cold vs renamed hit ---------------------------------------------
  // Cold pass: one Match per pattern, materializing each result. Renamed
  // pass: an isomorphic copy of each pattern (fresh node numbering, so
  // the exact caches all miss) — answered from the donor's entry through
  // the canonical witness.
  const Engine engine;
  std::vector<std::shared_ptr<const PreparedQuery>> donors;
  for (const Graph& q : patterns) {
    auto pq = engine.PrepareCached(q);
    if (pq.ok()) donors.push_back(*pq);
  }

  MatchStats cold_stats;
  size_t cold_results = 0;
  Timer cold_timer;
  for (const auto& pq : donors) {
    auto response = engine.Match(*pq, g, request);
    if (!response.ok()) {
      std::printf("error: %s\n", response.status().ToString().c_str());
      return 1;
    }
    cold_results += response->subgraphs.size();
  }
  const double cold_seconds = cold_timer.Seconds();
  cold_stats.total_seconds = cold_seconds;
  report.Add("cold_pass", cold_seconds, cold_stats);

  std::vector<std::shared_ptr<const PreparedQuery>> renamed;
  for (const Graph& q : patterns) {
    auto pq = engine.PrepareCached(RenamedCopy(q, &rng));
    if (pq.ok()) renamed.push_back(*pq);
  }
  MatchStats renamed_stats;
  size_t renamed_results = 0, equivalent_served = 0;
  Timer renamed_timer;
  for (const auto& pq : renamed) {
    auto response = engine.Match(*pq, g, request);
    if (!response.ok()) {
      std::printf("error: %s\n", response.status().ToString().c_str());
      return 1;
    }
    renamed_results += response->subgraphs.size();
    equivalent_served += response->stats.result_served_equivalent;
  }
  const double renamed_seconds = renamed_timer.Seconds();
  renamed_stats.result_served_equivalent = equivalent_served;
  renamed_stats.total_seconds = renamed_seconds;
  report.Add("renamed_hit_pass", renamed_seconds, renamed_stats);

  const double renamed_speedup =
      renamed_seconds > 0 ? cold_seconds / renamed_seconds : 0;
  TablePrinter renamed_table({"pass", "time(s)", "results", "served equiv"});
  renamed_table.AddRow({"cold", FormatDouble(cold_seconds, 4),
                        std::to_string(cold_results), "-"});
  renamed_table.AddRow({"renamed", FormatDouble(renamed_seconds, 4),
                        std::to_string(renamed_results),
                        std::to_string(equivalent_served)});
  std::printf("%s", renamed_table.Render().c_str());
  std::printf("renamed-pattern serve: %.2fx vs cold\n\n", renamed_speedup);
  bench::ShapeCheck(equivalent_served == renamed.size(),
                    "every renamed pattern is served from its isomorphic "
                    "donor (result_served_equivalent)");
  bench::ShapeCheck(renamed_results == cold_results,
                    "renamed serves return exactly the cold result counts");
  bench::ShapeCheck(renamed_speedup >= 5.0,
                    "renamed warm hits run >= 5x faster than cold");

  // -- 2. contained seeding -----------------------------------------------
  // Specializations of each donor: the exact filter memo misses (new
  // fingerprint), but the containment roster finds the donor and seeds
  // the fixpoint from its survivors. Result cache is fresh per pattern
  // by construction (the specialized fingerprints are new), so this pass
  // runs the full ball loop either way — the delta is the filter stage.
  const Engine cold_engine;  // no donor filters: the cold baseline
  MatchStats seeded_stats;
  size_t seeded_results = 0, cold_spec_results = 0, seeded_count = 0;
  double seeded_seconds = 0, cold_spec_seconds = 0;
  for (const Graph& q : patterns) {
    const Graph spec = Specialize(q, /*extra_nodes=*/2);
    auto cold_pq = cold_engine.PrepareCached(spec);
    auto warm_pq = engine.PrepareCached(spec);
    if (!cold_pq.ok() || !warm_pq.ok()) continue;
    Timer cold_spec_timer;
    auto cold_response = cold_engine.Match(**cold_pq, g, request);
    cold_spec_seconds += cold_spec_timer.Seconds();
    Timer seeded_timer;
    auto seeded_response = engine.Match(**warm_pq, g, request);
    seeded_seconds += seeded_timer.Seconds();
    if (!cold_response.ok() || !seeded_response.ok()) {
      std::printf("error in contained-seeding section\n");
      return 1;
    }
    cold_spec_results += cold_response->subgraphs.size();
    seeded_results += seeded_response->subgraphs.size();
    seeded_count += seeded_response->stats.filter_seeded_containment;
  }
  seeded_stats.filter_seeded_containment = seeded_count;
  seeded_stats.total_seconds = seeded_seconds;
  report.Add("contained_cold", cold_spec_seconds);
  report.Add("contained_seeded", seeded_seconds, seeded_stats);
  std::printf("contained patterns: cold %.4fs vs seeded %.4fs (%.2fx), "
              "%zu/%zu filters seeded, results %zu == %zu\n\n",
              cold_spec_seconds, seeded_seconds,
              seeded_seconds > 0 ? cold_spec_seconds / seeded_seconds : 0,
              seeded_count, patterns.size(), cold_spec_results,
              seeded_results);
  bench::ShapeCheck(seeded_count == patterns.size(),
                    "every specialized pattern seeds its dual filter from "
                    "the containing donor (filter_seeded_containment)");
  bench::ShapeCheck(seeded_results == cold_spec_results,
                    "containment-seeded runs return exactly the cold "
                    "results");

  // -- 3. batch vs singles ------------------------------------------------
  // Duplicate in-flight items: one MatchBatch over each pattern asked 3
  // times, result cache off so every item runs its own ball loop.
  constexpr int kDuplicates = 3;
  EngineOptions batch_options;
  batch_options.result_cache_capacity = 0;
  const Engine batch_engine(batch_options);
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const Graph& q : patterns) {
    auto pq = batch_engine.PrepareCached(q);
    if (pq.ok()) prepared.push_back(*pq);
  }
  std::vector<BatchItem> items;
  for (int d = 0; d < kDuplicates; ++d) {
    for (const auto& pq : prepared) items.push_back({pq.get(), request, {}});
  }

  Timer singles_timer;
  size_t singles_results = 0;
  for (const BatchItem& item : items) {
    auto response = batch_engine.Match(*item.query, g, item.request);
    if (response.ok()) singles_results += response->subgraphs.size();
  }
  const double singles_seconds = singles_timer.Seconds();

  Timer batch_timer;
  auto responses = batch_engine.MatchBatch(g, items);
  const double batch_seconds = batch_timer.Seconds();
  size_t batch_results = 0;
  MatchStats batch_stats;
  for (const auto& response : responses) {
    if (response.ok()) batch_results += response->subgraphs.size();
  }
  batch_stats.total_seconds = batch_seconds;
  report.Add("singles_total", singles_seconds);
  report.Add("batch_total", batch_seconds, batch_stats);

  TablePrinter batch_table({"mode", "time(s)", "results"});
  batch_table.AddRow({std::to_string(items.size()) + " singles",
                      FormatDouble(singles_seconds, 4),
                      std::to_string(singles_results)});
  batch_table.AddRow({"1 batch", FormatDouble(batch_seconds, 4),
                      std::to_string(batch_results)});
  std::printf("%s", batch_table.Render().c_str());
  std::printf("batch %.2fx vs singles\n",
              batch_seconds > 0 ? singles_seconds / batch_seconds : 0);
  bench::ShapeCheck(batch_results == singles_results,
                    "MatchBatch returns exactly the lone-Match results");

  const EngineCacheStats stats = engine.cache_stats();
  std::printf("\ncross-query engine: %llu equivalent serves, %llu seeded "
              "filters, %zu patterns indexed\n",
              static_cast<unsigned long long>(stats.equivalent_result_hits),
              static_cast<unsigned long long>(stats.containment_filter_seeds),
              stats.cross_query_entries);
  return 0;
}
