#ifndef HYGNN_GRAPH_GRAPH_H_
#define HYGNN_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/csr.h"
#include "tensor/sparse.h"

namespace hygnn::graph {

/// An undirected simple graph stored in CSR form (a core::Csr of each
/// node's neighbors). Nodes are dense ids [0, num_nodes). Self-loops
/// and parallel edges in the input are dropped/merged at construction.
class Graph {
 public:
  /// Builds from an undirected edge list; each {u, v} is stored in both
  /// directions. Out-of-range endpoints abort (programmer error).
  Graph(int32_t num_nodes,
        const std::vector<std::pair<int32_t, int32_t>>& edges);

  int32_t num_nodes() const { return num_nodes_; }
  /// Number of undirected edges.
  int64_t num_edges() const {
    return static_cast<int64_t>(adjacency_.indices.size()) / 2;
  }

  /// Neighbors of `node`, sorted ascending.
  std::span<const int32_t> Neighbors(int32_t node) const;

  int64_t Degree(int32_t node) const;

  /// True when {u, v} is an edge (binary search).
  bool HasEdge(int32_t u, int32_t v) const;

  /// Symmetric-normalized adjacency with self-loops,
  /// D^-1/2 (A + I) D^-1/2 — the GCN propagation matrix.
  std::shared_ptr<const tensor::CsrMatrix> NormalizedAdjacency() const;

  /// Row-normalized adjacency D^-1 A (mean aggregation, no self loop),
  /// used by the GraphSAGE mean aggregator.
  std::shared_ptr<const tensor::CsrMatrix> MeanAdjacency() const;

  /// Directed edge list (both directions), for attention-style layers:
  /// returns {sources, targets} with one entry per directed edge.
  void DirectedEdges(std::vector<int32_t>* sources,
                     std::vector<int32_t>* targets) const;

 private:
  int32_t num_nodes_;
  core::Csr adjacency_;  // each node's neighbors, ascending
};

}  // namespace hygnn::graph

#endif  // HYGNN_GRAPH_GRAPH_H_
