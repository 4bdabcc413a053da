// Graph: the node-labeled directed graph of the paper (§2.1), used for both
// data graphs and pattern graphs.
//
// Lifecycle: build with AddNode/AddEdge, then Finalize(). Finalize sorts
// adjacency lists (enabling O(log d) HasEdge), removes parallel edges, and
// builds the label index. All matching algorithms require a finalized graph;
// they GPM_CHECK this.

#ifndef GPM_GRAPH_GRAPH_H_
#define GPM_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/types.h"

namespace gpm {

/// \brief Interns string labels to dense Label ids.
///
/// Pattern and data graph must share one dictionary for labels to be
/// comparable; graph generators use Label ids directly and skip this.
class LabelDictionary {
 public:
  /// Returns the id for `name`, interning it if new.
  Label Intern(const std::string& name);

  /// Returns the id for `name` or NotFound.
  Result<Label> Find(const std::string& name) const;

  /// Inverse lookup; id must have been produced by Intern.
  const std::string& Name(Label id) const;

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, Label> ids_;
  std::vector<std::string> names_;
};

/// \brief A node-labeled directed graph G(V, E, l) with optional edge labels.
///
/// Both out- and in-adjacency are materialized: dual simulation needs
/// constant-time access to parents as well as children.
class Graph {
 public:
  Graph() = default;

  /// Adds a node with the given label; returns its id (dense, increasing).
  NodeId AddNode(Label label);

  /// Adds a directed edge u -> v. Self-loops are allowed (they occur in
  /// real co-purchase data); parallel edges are dropped by Finalize().
  /// Must not be called after Finalize().
  void AddEdge(NodeId u, NodeId v, EdgeLabel label = 0);

  /// Sorts adjacency, removes duplicate edges, builds the label index.
  /// Idempotent. Adding nodes/edges afterwards is a checked error.
  void Finalize();

  /// Returns the graph to the empty unfinalized state while keeping every
  /// allocated buffer (per-node adjacency capacity, label-index storage) so
  /// a rebuild into the same object allocates nothing. This is the ball
  /// executors' per-worker reuse hook: a worker builds thousands of small
  /// ball graphs into one Graph, and `= Graph()` would free and reallocate
  /// every adjacency list each time.
  void ResetForReuse();

  bool finalized() const { return finalized_; }

  size_t num_nodes() const { return labels_.size(); }
  size_t num_edges() const { return num_edges_; }

  Label label(NodeId v) const { return labels_[v]; }

  /// Children of v (targets of out-edges), sorted after Finalize().
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_[v].data(), out_[v].size()};
  }
  /// Parents of v (sources of in-edges), sorted after Finalize().
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_[v].data(), in_[v].size()};
  }

  /// Edge labels aligned with OutNeighbors(v).
  std::span<const EdgeLabel> OutEdgeLabels(NodeId v) const {
    return {out_labels_[v].data(), out_labels_[v].size()};
  }

  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  /// True iff edge (u, v) exists. Requires Finalize() (binary search).
  bool HasEdge(NodeId u, NodeId v) const;

  /// All nodes carrying `label`, sorted. Requires Finalize().
  std::span<const NodeId> NodesWithLabel(Label label) const;

  /// Distinct labels present, sorted. Requires Finalize().
  std::span<const Label> DistinctLabels() const {
    return {distinct_labels_.data(), distinct_labels_.size()};
  }

  /// Number of nodes + number of edges — the paper's |G|.
  size_t Size() const { return num_nodes() + num_edges(); }

  /// Extracts the subgraph induced on `nodes` (all edges of this graph with
  /// both endpoints in `nodes`). `nodes` need not be sorted; duplicates are
  /// a checked error. Returns the new graph (finalized) and writes the
  /// local-to-parent id mapping to `*to_parent` if non-null (local id i
  /// corresponds to parent node (*to_parent)[i]).
  Graph InducedSubgraph(std::span<const NodeId> nodes,
                        std::vector<NodeId>* to_parent = nullptr) const;

  /// Reverses every edge (used by algorithms needing the transpose view
  /// materialized). The label index is preserved.
  Graph Reversed() const;

  /// Structural equality: same labels, same edge sets. Requires both
  /// finalized. Ignores edge labels unless `compare_edge_labels`.
  bool StructurallyEqual(const Graph& other,
                         bool compare_edge_labels = false) const;

  /// Stable FNV-1a hash over (labels, edges, edge labels). Two graphs with
  /// ContentHash() equal are StructurallyEqual with overwhelming
  /// probability. Engine::PrepareCached keys compiled patterns on it and
  /// re-checks hits structurally (a collision compiles uncached, never
  /// serves the wrong query); the data-side memo keys combine it with the
  /// data graph's instance_id(). Requires Finalize(); O(V + E) per call,
  /// so hash once and keep the value.
  uint64_t ContentHash() const;

  /// Process-unique identity stamped by the first Finalize() call (0 while
  /// unfinalized). Content never changes after Finalize() and copies carry
  /// both the content and the stamp, so equal ids imply equal content —
  /// the engine's data-graph cache-key identity, immune to one graph being
  /// destroyed and another allocated at the same address.
  uint64_t instance_id() const { return instance_id_; }

 private:
  friend class GraphBuilderForIO;

  std::vector<Label> labels_;
  // Adjacency vectors may outlive labels_ across ResetForReuse(): only the
  // first num_nodes() entries are live; the rest keep their capacity for
  // the next build.
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::vector<std::vector<EdgeLabel>> out_labels_;
  size_t num_edges_ = 0;
  bool finalized_ = false;
  uint64_t instance_id_ = 0;

  // Label index, flat (struct-of-arrays): all nodes sorted by (label, id),
  // with distinct_labels_[i]'s nodes at
  // label_sorted_nodes_[label_offsets_[i] .. label_offsets_[i+1]). A
  // sort-based index rebuilds with zero allocations on reuse, unlike a
  // hash map of per-label vectors.
  std::vector<NodeId> label_sorted_nodes_;
  std::vector<uint32_t> label_offsets_;
  std::vector<Label> distinct_labels_;
};

}  // namespace gpm

#endif  // GPM_GRAPH_GRAPH_H_
