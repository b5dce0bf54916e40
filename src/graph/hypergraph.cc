#include "graph/hypergraph.h"

#include <algorithm>

#include "core/logging.h"

namespace hygnn::graph {

Hypergraph::Hypergraph(int32_t num_nodes,
                       const std::vector<std::vector<int32_t>>& members) {
  HYGNN_CHECK_GE(num_nodes, 0);
  std::vector<int32_t>& pair_nodes = edges_.indices;
  for (int32_t j = 0; j < static_cast<int32_t>(members.size()); ++j) {
    const auto& edge = members[static_cast<size_t>(j)];
    for (int32_t v : edge) {
      HYGNN_CHECK(v >= 0 && v < num_nodes);
    }
    const auto first =
        pair_nodes.insert(pair_nodes.end(), edge.begin(), edge.end());
    std::sort(first, pair_nodes.end());
    pair_nodes.erase(std::unique(first, pair_nodes.end()), pair_nodes.end());
    pair_edges_.resize(pair_nodes.size(), j);
    edges_.offsets.push_back(static_cast<int64_t>(pair_nodes.size()));
  }
  // The pairs are in edge order, so grouping them by node leaves each
  // node's edges ascending.
  nodes_.GroupBy(pair_nodes, num_nodes);
  for (int32_t& pair : nodes_.indices) pair = pair_edges_[pair];
}

std::span<const int32_t> Hypergraph::EdgeMembers(int32_t edge) const {
  HYGNN_CHECK(edge >= 0 && edge < num_edges());
  return edges_.Range(edge);
}

std::span<const int32_t> Hypergraph::NodeMemberships(int32_t node) const {
  HYGNN_CHECK(node >= 0 && node < num_nodes());
  return nodes_.Range(node);
}

int64_t Hypergraph::NodeDegree(int32_t node) const {
  HYGNN_CHECK(node >= 0 && node < num_nodes());
  return nodes_.Count(node);
}

int64_t Hypergraph::EdgeDegree(int32_t edge) const {
  HYGNN_CHECK(edge >= 0 && edge < num_edges());
  return edges_.Count(edge);
}

}  // namespace hygnn::graph
