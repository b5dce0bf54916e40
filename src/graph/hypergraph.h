#ifndef HYGNN_GRAPH_HYPERGRAPH_H_
#define HYGNN_GRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/csr.h"

namespace hygnn::graph {

/// A hypergraph G = (V, E) where each hyperedge connects an arbitrary
/// number of nodes (paper §III-A). In the drug hypergraph, nodes are
/// chemical substructures and hyperedges are drugs.
///
/// Storage is two core::Csr groupings of the incidences — each edge's
/// nodes and each node's edges — plus each incidence's edge. The edge
/// side's indices are the COO incidence list, one (node, edge) pair per
/// membership: exactly the rows that HyGNN's segment-softmax attention
/// operates on.
class Hypergraph {
 public:
  /// Builds from per-edge member lists: members[j] is the node set of
  /// hyperedge j. Duplicate members within an edge are merged.
  Hypergraph(int32_t num_nodes,
             const std::vector<std::vector<int32_t>>& members);

  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.num_keys()); }
  int32_t num_edges() const { return static_cast<int32_t>(edges_.num_keys()); }
  /// Total number of (node, edge) incidences (nnz of H).
  int64_t num_incidences() const {
    return static_cast<int64_t>(pair_edges_.size());
  }

  /// COO incidence: pair i connects node pair_nodes()[i] to hyperedge
  /// pair_edges()[i]. Pairs are ordered by edge then node, so
  /// pair_nodes() is the edges' members concatenated.
  const std::vector<int32_t>& pair_nodes() const { return edges_.indices; }
  const std::vector<int32_t>& pair_edges() const { return pair_edges_; }

  /// Nodes belonging to hyperedge `edge`, ascending.
  std::span<const int32_t> EdgeMembers(int32_t edge) const;

  /// Hyperedges containing `node`, ascending.
  std::span<const int32_t> NodeMemberships(int32_t node) const;

  /// Node degree |E_i| (number of incident hyperedges).
  int64_t NodeDegree(int32_t node) const;

  /// Hyperedge degree |e_j| (number of member nodes).
  int64_t EdgeDegree(int32_t edge) const;

 private:
  core::Csr edges_;  // each edge's nodes, ascending
  core::Csr nodes_;  // each node's edges, ascending
  std::vector<int32_t> pair_edges_;
};

}  // namespace hygnn::graph

#endif  // HYGNN_GRAPH_HYPERGRAPH_H_
