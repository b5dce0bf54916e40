#include "graph/graph.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace hygnn::graph {

Graph::Graph(int32_t num_nodes,
             const std::vector<std::pair<int32_t, int32_t>>& edges)
    : num_nodes_(num_nodes) {
  HYGNN_CHECK_GE(num_nodes, 0);
  std::vector<std::vector<int32_t>> adjacency(
      static_cast<size_t>(num_nodes));
  for (const auto& [u, v] : edges) {
    HYGNN_CHECK(u >= 0 && u < num_nodes);
    HYGNN_CHECK(v >= 0 && v < num_nodes);
    if (u == v) continue;  // drop self-loops
    adjacency[static_cast<size_t>(u)].push_back(v);
    adjacency[static_cast<size_t>(v)].push_back(u);
  }
  for (auto& nbrs : adjacency) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    adjacency_.indices.insert(adjacency_.indices.end(), nbrs.begin(),
                              nbrs.end());
    adjacency_.offsets.push_back(
        static_cast<int64_t>(adjacency_.indices.size()));
  }
}

std::span<const int32_t> Graph::Neighbors(int32_t node) const {
  HYGNN_CHECK(node >= 0 && node < num_nodes_);
  return adjacency_.Range(node);
}

int64_t Graph::Degree(int32_t node) const {
  HYGNN_CHECK(node >= 0 && node < num_nodes_);
  return adjacency_.Count(node);
}

bool Graph::HasEdge(int32_t u, int32_t v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::shared_ptr<const tensor::CsrMatrix> Graph::NormalizedAdjacency() const {
  std::vector<int32_t> rows, cols;
  std::vector<float> vals;
  // degrees including the self-loop
  std::vector<float> inv_sqrt_deg(static_cast<size_t>(num_nodes_));
  for (int32_t i = 0; i < num_nodes_; ++i) {
    inv_sqrt_deg[static_cast<size_t>(i)] =
        1.0f / std::sqrt(static_cast<float>(Degree(i) + 1));
  }
  for (int32_t i = 0; i < num_nodes_; ++i) {
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(inv_sqrt_deg[i] * inv_sqrt_deg[i]);
    for (int32_t nbr : Neighbors(i)) {
      rows.push_back(i);
      cols.push_back(nbr);
      vals.push_back(inv_sqrt_deg[i] * inv_sqrt_deg[static_cast<size_t>(nbr)]);
    }
  }
  return tensor::CsrMatrix::FromCoo(num_nodes_, num_nodes_, rows, cols, vals);
}

std::shared_ptr<const tensor::CsrMatrix> Graph::MeanAdjacency() const {
  std::vector<int32_t> rows, cols;
  std::vector<float> vals;
  for (int32_t i = 0; i < num_nodes_; ++i) {
    const int64_t degree = Degree(i);
    if (degree == 0) continue;
    const float weight = 1.0f / static_cast<float>(degree);
    for (int32_t nbr : Neighbors(i)) {
      rows.push_back(i);
      cols.push_back(nbr);
      vals.push_back(weight);
    }
  }
  return tensor::CsrMatrix::FromCoo(num_nodes_, num_nodes_, rows, cols, vals);
}

void Graph::DirectedEdges(std::vector<int32_t>* sources,
                          std::vector<int32_t>* targets) const {
  sources->clear();
  targets->clear();
  for (int32_t i = 0; i < num_nodes_; ++i) {
    for (int32_t nbr : Neighbors(i)) {
      sources->push_back(nbr);  // message flows nbr -> i
      targets->push_back(i);
    }
  }
}

}  // namespace hygnn::graph
