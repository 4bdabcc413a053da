// Pruned auxiliary adjacency + landmark distance index for the §4.2 ball
// loop (the GraphMini idea ported to strong simulation): after the global
// dual filter, almost every edge the per-ball refinement walks is wasted —
// non-survivor endpoints contribute no candidates, no border seeds with
// candidate pairs, and no match-graph edges. BuildAuxGraph materializes a
// CSR adjacency holding only the edges a ball's refinement can ever use,
// and AuxBallBuilder builds balls whose induced edges come from that
// pruned adjacency. Ball *membership* still comes from the full graph
// (survivors reachable only through non-survivor bridges are real
// Ĝ[w,r] members and must keep their distance/border classification):
// one bounded multi-source bitset BFS (Then et al., "The More the
// Merrier", VLDB 2015) gives the members of up to 64 consecutive centers'
// balls in one sweep. Results are identical to the full-graph path by
// construction; the differential suite in tests/aux_graph_test.cc locks
// that down.
//
// The landmark index rides along: one bounded multi-source BFS per
// effective query node u, seeded from u's candidate set, marks every data
// node within `radius` undirected hops of some candidate of u. A center
// not covered by ALL query nodes cannot yield a total ball relation
// (cand(u) empty inside the ball ⇒ Sw not total), so its ball is skipped
// without being built — `AuxGraphResult::centers` is the surviving subset
// and `centers_skipped_index` counts the skips. The pass only runs below
// the filter's witness radius (DualFilterResult::witness_radius): at or
// above it every survivor is provably covered, so the pass could not
// remove a center.

#ifndef GPM_MATCHING_AUX_GRAPH_H_
#define GPM_MATCHING_AUX_GRAPH_H_

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "matching/ball.h"
#include "matching/strong_simulation.h"

namespace gpm {

/// \brief Which full-graph edges survive into the auxiliary adjacency.
///
/// The default (plain strong simulation with the dual filter on) keeps an
/// edge iff both endpoints are dual-sim survivors. The regex path keeps
/// edges by *label* instead: a regex set image only ever walks edges whose
/// label appears in some constraint atom, but its witness paths may pass
/// through non-survivor intermediates — so endpoints stay unrestricted and
/// the kept-node set grows to cover every kept edge (see BuildAuxGraph).
struct AuxEdgeRule {
  /// Filter edges by label (the regex rule) instead of by endpoint
  /// survivorship (the plain rule).
  bool by_label = false;
  /// With by_label: some constraint atom is the any-label wildcard, so
  /// label pruning buys nothing — keep every edge. (The landmark center
  /// filter still applies.)
  bool any_label = false;
  /// With by_label and !any_label: the sorted, deduplicated union of
  /// constraint-atom labels.
  std::vector<EdgeLabel> labels;
};

/// \brief The memoizable product of BuildAuxGraph for one
/// (effective pattern, data graph, radius): the pruned out-adjacency in
/// data-graph node ids, the kept-node set balls may emit, and the
/// landmark-filtered center list. Depends on the data graph exactly like
/// DualFilterResult — the engine caches it per (pattern × data version)
/// and the data-version/snapshot story invalidates it.
struct AuxGraphResult {
  /// Nodes a ball is allowed to contain. Plain rule: the dual-sim
  /// survivors (any bits[u] set). Regex rule: survivors plus every
  /// endpoint of a kept edge (witness-path intermediates).
  DynamicBitset kept;
  /// Pruned out-adjacency over *global* node ids; rows of dropped nodes
  /// are empty. Layout mirrors CsrGraph's out side.
  std::vector<uint64_t> out_offsets;  // size = num_nodes + 1
  std::vector<NodeId> out_targets;
  std::vector<EdgeLabel> out_edge_labels;
  /// The filter's surviving centers minus those the landmark index proved
  /// radius-unreachable from some query node's candidates (all of them
  /// when the radius is at least the filter's witness radius). Ascending
  /// (a subsequence of DualFilterResult::centers), so serial scans keep
  /// the same min-center dedup representatives.
  std::vector<NodeId> centers;
  /// Centers the landmark index removed (filter.centers − centers).
  size_t centers_skipped_index = 0;
  /// The ball radius the index was computed for; a memoized result is
  /// only valid for runs at this exact radius.
  uint32_t radius = 0;
  /// Wall clock of the build when it was computed (a reuse costs ~0).
  double seconds = 0;

  size_t MemoryBytes() const;
};

/// Builds the pruned adjacency + landmark index for (filter, g) at
/// `radius`. `filter` must be a non-proven-empty ComputeDualFilter (or
/// regex-filter) result for the same data graph.
AuxGraphResult BuildAuxGraph(const CsrGraph& g, const DualFilterResult& filter,
                             uint32_t radius, const AuxEdgeRule& rule = {});

/// \brief Ball builder over the pruned auxiliary adjacency — the drop-in
/// replacement for CsrBallBuilder in dual-filtered runs (same Build
/// interface, one builder per thread).
///
/// Membership and distance come from a bounded multi-source bitset sweep
/// over the FULL graph, so every ball node keeps its true undirected
/// distance (and border flag). A sweep runs the requested center as lane
/// 0 and the next up to 63 entries of `aux.centers` as the other lanes;
/// a later Build for one of those lanes at the same radius reuses the
/// sweep, so an ascending scan sweeps once per 64 centers. Only the node
/// *emission* and the induced-edge scan consult the pruned structure. The
/// center must be a kept node (every filter-surviving center is), so
/// LocalCenter() == 0 still holds.
class AuxBallBuilder {
 public:
  AuxBallBuilder(const CsrGraph& g, const AuxGraphResult& aux);

  /// Builds the kept-node projection of Ĝ[center, radius] into *out
  /// (contents replaced), with edges induced from the pruned adjacency.
  void Build(NodeId center, uint32_t radius, Ball* out);

  /// Later sweeps take lanes only from the aux centers below `end`, so a
  /// builder that scans one contiguous range of centers sweeps none past
  /// it. Balls are the same either way.
  void SetLaneEnd(NodeId end);

  /// Bytes of the per-node scratch (sweep words and the local-id map).
  size_t ScratchBytes() const;

 private:
  // Sweeps from `center` (lane 0) and the aux centers after it.
  void Sweep(NodeId center, uint32_t radius);

  const CsrGraph& g_;
  const AuxGraphResult& aux_;
  // Lanes one sweep may run: 64, fewer when 64 balls of kept nodes would
  // not fit the member budget.
  size_t max_lanes_ = 64;
  // Sweeps take no lane at or past this center (SetLaneEnd).
  NodeId lane_end_ = std::numeric_limits<NodeId>::max();
  // The per-node arrays come from calloc: a large one maps fresh zero
  // pages, so on a big graph a builder faults in only the pages its sweeps
  // touch instead of filling |V| entries for every request.
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using NodeArray = std::unique_ptr<T[], FreeDeleter>;
  template <typename T>
  static NodeArray<T> ZeroedNodeArray(size_t num_nodes);

  // Per-node lane words of the running sweep; bit i belongs to lane i.
  // seen_ is reset through touched_ (the nodes with a nonzero word) at the
  // start of the next sweep; next_ is zero between levels.
  NodeArray<uint64_t> seen_;
  NodeArray<uint64_t> next_;
  std::vector<NodeId> touched_;
  // The current level's nodes with the lanes that reached them, and the
  // nodes the next level reaches.
  std::vector<std::pair<NodeId, uint64_t>> frontier_;
  std::vector<NodeId> next_list_;
  // The last sweep: its radius, its lanes' centers (ascending), each
  // lane's kept members in level order, center first, and the index of
  // its first border member (distance == radius; the last level).
  uint32_t sweep_radius_ = 0;
  std::vector<NodeId> lane_centers_;
  std::vector<std::vector<NodeId>> lane_members_;
  std::vector<size_t> border_begin_;
  NodeArray<NodeId> global_to_local_;
  NodeArray<uint32_t> local_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace gpm

#endif  // GPM_MATCHING_AUX_GRAPH_H_
