#include "matching/aux_graph.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/timer.h"

namespace gpm {

size_t AuxGraphResult::MemoryBytes() const {
  return kept.size() / 8 + out_offsets.capacity() * sizeof(uint64_t) +
         out_targets.capacity() * sizeof(NodeId) +
         out_edge_labels.capacity() * sizeof(EdgeLabel) +
         centers.capacity() * sizeof(NodeId);
}

namespace {

// Marks, for every effective query node u, the data nodes within `radius`
// undirected hops of some member of bits[u] (one bounded multi-source BFS
// per u over the full graph — ball distance is full-graph distance). A
// center survives iff all nq query nodes cover it: otherwise some cand(u)
// is empty in its ball and the ball relation cannot be total.
std::vector<NodeId> LandmarkFilterCenters(const CsrGraph& g,
                                          const DualFilterResult& filter,
                                          uint32_t radius,
                                          size_t* skipped) {
  const size_t n = g.num_nodes();
  const size_t nq = filter.bits.size();
  std::vector<uint32_t> reach_count(n, 0);
  std::vector<uint32_t> seen(n, 0);
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  uint32_t epoch = 0;
  for (size_t u = 0; u < nq; ++u) {
    ++epoch;
    frontier.clear();
    filter.bits[u].ForEach([&](size_t v) {
      seen[v] = epoch;
      ++reach_count[v];
      frontier.push_back(static_cast<NodeId>(v));
    });
    for (uint32_t d = 0; d < radius && !frontier.empty(); ++d) {
      next.clear();
      for (NodeId v : frontier) {
        auto visit = [&](NodeId w) {
          if (seen[w] != epoch) {
            seen[w] = epoch;
            ++reach_count[w];
            next.push_back(w);
          }
        };
        for (NodeId w : g.OutNeighbors(v)) visit(w);
        for (NodeId w : g.InNeighbors(v)) visit(w);
      }
      frontier.swap(next);
    }
  }
  std::vector<NodeId> centers;
  centers.reserve(filter.centers.size());
  for (NodeId w : filter.centers) {
    if (reach_count[w] == nq) centers.push_back(w);
  }
  *skipped = filter.centers.size() - centers.size();
  return centers;
}

}  // namespace

AuxGraphResult BuildAuxGraph(const CsrGraph& g, const DualFilterResult& filter,
                             uint32_t radius, const AuxEdgeRule& rule) {
  Timer timer;
  GPM_CHECK(!filter.proven_empty);
  GPM_CHECK(!filter.bits.empty());
  const size_t n = g.num_nodes();

  AuxGraphResult out;
  out.radius = radius;

  // Survivors: data nodes matched by at least one effective query node.
  DynamicBitset survivor(n);
  for (const DynamicBitset& bits : filter.bits) survivor |= bits;

  auto label_kept = [&](EdgeLabel label) {
    return rule.any_label ||
           std::binary_search(rule.labels.begin(), rule.labels.end(), label);
  };

  // Count kept edges per row, then fill. Plain rule: both endpoints are
  // survivors (anything else cannot appear in a projected candidate set,
  // seed a border refinement, or become a match-graph edge). Regex rule:
  // the edge label appears in some constraint atom (the only edges
  // regex set image walks) — endpoints unrestricted, because witness
  // paths may route through non-survivor intermediates.
  out.out_offsets.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (!rule.by_label && !survivor.Test(u)) continue;
    auto targets = g.OutNeighbors(u);
    auto labels = g.OutEdgeLabels(u);
    uint64_t kept_row = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (rule.by_label ? label_kept(labels[i]) : survivor.Test(targets[i])) {
        ++kept_row;
      }
    }
    out.out_offsets[u + 1] = kept_row;
  }
  for (size_t u = 0; u < n; ++u) out.out_offsets[u + 1] += out.out_offsets[u];
  const uint64_t kept_edges = out.out_offsets[n];
  out.out_targets.resize(kept_edges);
  out.out_edge_labels.resize(kept_edges);

  // Kept nodes: survivors, plus (regex rule) every endpoint of a kept
  // edge so label-matching witness paths stay intact inside the ball.
  out.kept = survivor;
  for (NodeId u = 0; u < n; ++u) {
    uint64_t cursor = out.out_offsets[u];
    if (cursor == out.out_offsets[u + 1]) continue;
    auto targets = g.OutNeighbors(u);
    auto labels = g.OutEdgeLabels(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (rule.by_label ? label_kept(labels[i]) : survivor.Test(targets[i])) {
        out.out_targets[cursor] = targets[i];
        out.out_edge_labels[cursor] = labels[i];
        ++cursor;
        if (rule.by_label) {
          out.kept.Set(u);
          out.kept.Set(targets[i]);
        }
      }
    }
    GPM_CHECK_EQ(cursor, out.out_offsets[u + 1]);
  }

  if (radius >= filter.witness_radius) {
    out.centers = filter.centers;  // every survivor is covered
  } else {
    out.centers =
        LandmarkFilterCenters(g, filter, radius, &out.centers_skipped_index);
  }
  out.seconds = timer.Seconds();
  return out;
}

template <typename T>
AuxBallBuilder::NodeArray<T> AuxBallBuilder::ZeroedNodeArray(
    size_t num_nodes) {
  void* p = std::calloc(std::max<size_t>(num_nodes, 1), sizeof(T));
  GPM_CHECK(p != nullptr) << "out of memory";
  return NodeArray<T>(static_cast<T*>(p));
}

AuxBallBuilder::AuxBallBuilder(const CsrGraph& g, const AuxGraphResult& aux)
    : g_(g),
      aux_(aux),
      seen_(ZeroedNodeArray<uint64_t>(g.num_nodes())),
      next_(ZeroedNodeArray<uint64_t>(g.num_nodes())),
      lane_members_(64),
      border_begin_(64),
      global_to_local_(ZeroedNodeArray<NodeId>(g.num_nodes())),
      local_epoch_(ZeroedNodeArray<uint32_t>(g.num_nodes())) {
  GPM_CHECK_EQ(aux.out_offsets.size(), g.num_nodes() + 1);
  // A sweep holds at most max_lanes_ * |kept| members; cap that at 4M
  // (32 MiB) so huge kept sets narrow the sweep instead of the memory.
  constexpr size_t kMaxSweepMembers = size_t{1} << 22;
  max_lanes_ = std::clamp<size_t>(
      kMaxSweepMembers / std::max<size_t>(aux.kept.Count(), 1), 1, 64);
}

size_t AuxBallBuilder::ScratchBytes() const {
  return g_.num_nodes() *
         (2 * sizeof(uint64_t) + sizeof(NodeId) + sizeof(uint32_t));
}

void AuxBallBuilder::SetLaneEnd(NodeId end) { lane_end_ = end; }

void AuxBallBuilder::Sweep(NodeId center, uint32_t radius) {
  for (const NodeId v : touched_) seen_[v] = 0;
  touched_.clear();
  frontier_.clear();
  // Lane 0 is the center, the rest the aux centers after it (below
  // lane_end_), so the lane list is ascending.
  lane_centers_.assign(1, center);
  for (auto it = std::upper_bound(aux_.centers.begin(), aux_.centers.end(),
                                  center);
       it != aux_.centers.end() && *it < lane_end_ &&
       lane_centers_.size() < max_lanes_;
       ++it) {
    lane_centers_.push_back(*it);
  }
  for (size_t lane = 0; lane < lane_centers_.size(); ++lane) {
    const NodeId c = lane_centers_[lane];
    seen_[c] = uint64_t{1} << lane;
    touched_.push_back(c);
    frontier_.emplace_back(c, seen_[c]);
    // Every lane center is kept: lane 0 is checked by Build, the others
    // are filter survivors.
    lane_members_[lane].assign(1, c);
    // At radius 0 the center is the border; otherwise the border starts
    // with the last level, if the sweep reaches it.
    border_begin_[lane] = radius == 0 ? 0 : SIZE_MAX;
  }
  for (uint32_t level = 1; level <= radius && !frontier_.empty(); ++level) {
    if (level == radius) {
      for (size_t lane = 0; lane < lane_centers_.size(); ++lane) {
        border_begin_[lane] = lane_members_[lane].size();
      }
    }
    // Expand: the lanes of v's frontier word reach v's undirected
    // neighbors at `level`, unless they saw them before.
    next_list_.clear();
    for (const auto& [v, lanes] : frontier_) {
      auto reach = [&](NodeId w) {
        const uint64_t fresh = lanes & ~seen_[w];
        if (fresh == 0) return;
        if (next_[w] == 0) next_list_.push_back(w);
        next_[w] |= fresh;
      };
      for (const NodeId w : g_.OutNeighbors(v)) reach(w);
      for (const NodeId w : g_.InNeighbors(v)) reach(w);
    }
    // Settle: the newly reached lanes become seen and the next frontier,
    // and each kept node joins the balls of those lanes.
    frontier_.clear();
    for (const NodeId w : next_list_) {
      const uint64_t fresh = next_[w];
      next_[w] = 0;
      if (seen_[w] == 0) touched_.push_back(w);
      seen_[w] |= fresh;
      frontier_.emplace_back(w, fresh);
      if (!aux_.kept.Test(w)) continue;
      for (uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
        lane_members_[std::countr_zero(bits)].push_back(w);
      }
    }
  }
  sweep_radius_ = radius;
}

void AuxBallBuilder::Build(NodeId center, uint32_t radius, Ball* out) {
  GPM_CHECK_LT(center, g_.num_nodes());
  GPM_CHECK(aux_.kept.Test(center));  // centers are filter survivors
  out->center = center;
  out->radius = radius;
  out->graph.ResetForReuse();
  out->to_global.clear();
  out->is_border.clear();

  // Membership/distance from the FULL graph; see the header comment.
  auto lane = std::lower_bound(lane_centers_.begin(), lane_centers_.end(),
                               center);
  if (radius != sweep_radius_ || lane == lane_centers_.end() ||
      *lane != center) {
    Sweep(center, radius);
    lane = lane_centers_.begin();
  }
  const size_t index = static_cast<size_t>(lane - lane_centers_.begin());
  const std::vector<NodeId>& members = lane_members_[index];
  const size_t border_begin = std::min(border_begin_[index], members.size());

  ++epoch_;
  if (epoch_ == 0) {
    std::fill_n(local_epoch_.get(), g_.num_nodes(), 0);
    epoch_ = 1;
  }
  // Members are in level order with the center first, so
  // LocalCenter() == 0.
  for (size_t i = 0; i < members.size(); ++i) {
    const NodeId v = members[i];
    const NodeId local = out->graph.AddNode(g_.label(v));
    global_to_local_[v] = local;
    local_epoch_[v] = epoch_;
    out->to_global.push_back(v);
    out->is_border.push_back(i >= border_begin);
  }
  // Induce edges from the pruned rows: both endpoints must be kept ball
  // members (the epoch stamp covers membership; kept is implied because
  // only kept nodes were stamped).
  for (size_t lu = 0; lu < out->to_global.size(); ++lu) {
    const NodeId u = out->to_global[lu];
    const uint64_t begin = aux_.out_offsets[u];
    const uint64_t end = aux_.out_offsets[u + 1];
    for (uint64_t i = begin; i < end; ++i) {
      const NodeId w = aux_.out_targets[i];
      if (local_epoch_[w] == epoch_) {
        out->graph.AddEdge(static_cast<NodeId>(lu), global_to_local_[w],
                           aux_.out_edge_labels[i]);
      }
    }
  }
  out->graph.Finalize();
}

}  // namespace gpm
