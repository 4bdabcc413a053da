#include "matching/match_relation.h"

#include <algorithm>
#include <unordered_map>

#include "common/bitset.h"
#include "common/logging.h"

namespace gpm {

bool MatchRelation::IsTotal() const {
  if (sim.empty()) return false;
  return std::all_of(sim.begin(), sim.end(),
                     [](const std::vector<NodeId>& s) { return !s.empty(); });
}

bool MatchRelation::IsEmpty() const {
  return std::all_of(sim.begin(), sim.end(),
                     [](const std::vector<NodeId>& s) { return s.empty(); });
}

size_t MatchRelation::NumPairs() const {
  size_t n = 0;
  for (const auto& s : sim) n += s.size();
  return n;
}

bool MatchRelation::Contains(NodeId query_node, NodeId data_node) const {
  GPM_CHECK_LT(query_node, sim.size());
  const auto& s = sim[query_node];
  return std::binary_search(s.begin(), s.end(), data_node);
}

void MatchRelation::Clear() {
  for (auto& s : sim) s.clear();
}

MatchGraph BuildMatchGraph(const Graph& q, const Graph& g,
                           const MatchRelation& relation) {
  GPM_CHECK_EQ(relation.sim.size(), q.num_nodes());
  MatchGraph mg;

  // match_bits[v]: which query nodes v matches. Only nodes in the relation
  // get an entry.
  const size_t nq = q.num_nodes();
  std::unordered_map<NodeId, DynamicBitset> match_bits;
  for (size_t u = 0; u < nq; ++u) {
    for (NodeId v : relation.sim[u]) {
      auto [it, inserted] = match_bits.try_emplace(v, DynamicBitset(nq));
      it->second.Set(u);
    }
  }
  mg.nodes.reserve(match_bits.size());
  for (const auto& [v, bits] : match_bits) mg.nodes.push_back(v);
  std::sort(mg.nodes.begin(), mg.nodes.end());

  // An edge (v, v') is in the match graph iff the query children of the
  // nodes v matches, ∪_{u ∈ bits(v)} children(u), intersect bits(v').
  DynamicBitset reach(nq);
  for (NodeId v : mg.nodes) {
    const DynamicBitset& vbits = match_bits.at(v);
    reach.Reset();
    vbits.ForEach([&](size_t u) {
      for (NodeId u2 : q.OutNeighbors(static_cast<NodeId>(u))) reach.Set(u2);
    });
    if (reach.None()) continue;
    for (NodeId w : g.OutNeighbors(v)) {
      auto it = match_bits.find(w);
      if (it == match_bits.end()) continue;
      if (reach.Intersects(it->second)) mg.edges.emplace_back(v, w);
    }
  }
  std::sort(mg.edges.begin(), mg.edges.end());
  return mg;
}

Graph MaterializeMatchGraph(const MatchGraph& mg, const Graph& g,
                            std::vector<NodeId>* to_global) {
  Graph out;
  std::unordered_map<NodeId, NodeId> local;
  local.reserve(mg.nodes.size());
  for (NodeId v : mg.nodes) {
    local.emplace(v, out.AddNode(g.label(v)));
  }
  for (const auto& [src, dst] : mg.edges) {
    out.AddEdge(local.at(src), local.at(dst));
  }
  out.Finalize();
  if (to_global != nullptr) *to_global = mg.nodes;
  return out;
}

}  // namespace gpm
