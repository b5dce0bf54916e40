#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"

namespace hygnn::graph {
namespace {

Graph MakeTriangle() {
  return Graph(4, {{0, 1}, {1, 2}, {2, 0}});  // node 3 isolated
}

TEST(GraphTest, BasicCounts) {
  Graph g = MakeTriangle();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(3), 0);
}

TEST(GraphTest, NeighborsSorted) {
  Graph g(3, {{2, 0}, {0, 1}});
  auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
}

TEST(GraphTest, SelfLoopsDropped) {
  Graph g(2, {{0, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(GraphTest, ParallelEdgesMerged) {
  Graph g(2, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, HasEdge) {
  Graph g = MakeTriangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphTest, NormalizedAdjacencyRowsSumAtMostOne) {
  Graph g = MakeTriangle();
  auto adj = g.NormalizedAdjacency();
  EXPECT_EQ(adj->rows(), 4);
  // For a triangle node: deg+1 = 3, each entry 1/3, row sums to 1.
  std::vector<float> ones(4, 1.0f);
  std::vector<float> row_sums(4, 0.0f);
  adj->MultiplyInto(ones.data(), 1, row_sums.data());
  EXPECT_NEAR(row_sums[0], 1.0f, 1e-5f);
  // Isolated node has only its self-loop: sum = 1.
  EXPECT_NEAR(row_sums[3], 1.0f, 1e-5f);
}

TEST(GraphTest, MeanAdjacencyAverages) {
  Graph g = MakeTriangle();
  auto adj = g.MeanAdjacency();
  std::vector<float> ones(4, 1.0f);
  std::vector<float> row_sums(4, 0.0f);
  adj->MultiplyInto(ones.data(), 1, row_sums.data());
  EXPECT_NEAR(row_sums[0], 1.0f, 1e-5f);
  EXPECT_EQ(row_sums[3], 0.0f);  // isolated: empty row
}

TEST(GraphTest, DirectedEdgesBothDirections) {
  Graph g(2, {{0, 1}});
  std::vector<int32_t> sources, targets;
  g.DirectedEdges(&sources, &targets);
  ASSERT_EQ(sources.size(), 2u);
  std::set<std::pair<int32_t, int32_t>> edges;
  for (size_t i = 0; i < sources.size(); ++i) {
    edges.insert({sources[i], targets[i]});
  }
  EXPECT_TRUE(edges.count({0, 1}));
  EXPECT_TRUE(edges.count({1, 0}));
}

// ---------- Hypergraph ----------

Hypergraph MakeDrugHypergraph() {
  // 5 substructures, 3 drugs:
  //   e0 = {0, 1, 2}, e1 = {1, 2, 3}, e2 = {4}
  return Hypergraph(5, {{0, 1, 2}, {1, 2, 3}, {4}});
}

TEST(HypergraphTest, Counts) {
  Hypergraph h = MakeDrugHypergraph();
  EXPECT_EQ(h.num_nodes(), 5);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.num_incidences(), 7);
}

TEST(HypergraphTest, Degrees) {
  Hypergraph h = MakeDrugHypergraph();
  EXPECT_EQ(h.EdgeDegree(0), 3);
  EXPECT_EQ(h.EdgeDegree(2), 1);
  EXPECT_EQ(h.NodeDegree(1), 2);  // in e0 and e1
  EXPECT_EQ(h.NodeDegree(0), 1);
  EXPECT_EQ(h.NodeDegree(4), 1);
}

TEST(HypergraphTest, Membership) {
  Hypergraph h = MakeDrugHypergraph();
  auto members = h.EdgeMembers(1);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], 1);
  EXPECT_EQ(members[2], 3);
  auto memberships = h.NodeMemberships(2);
  ASSERT_EQ(memberships.size(), 2u);
  EXPECT_EQ(memberships[0], 0);
  EXPECT_EQ(memberships[1], 1);
}

TEST(HypergraphTest, DuplicateMembersMerged) {
  Hypergraph h(3, {{0, 0, 1}});
  EXPECT_EQ(h.EdgeDegree(0), 2);
}

TEST(HypergraphTest, PairsOrderedByEdge) {
  Hypergraph h = MakeDrugHypergraph();
  const auto& edges = h.pair_edges();
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LE(edges[i - 1], edges[i]);
  }
}

TEST(HypergraphTest, EmptyEdgeAllowed) {
  Hypergraph h(3, {{0}, {}, {1, 2}});
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.EdgeDegree(1), 0);
  EXPECT_EQ(h.num_incidences(), 3);
}

// ---------- builders ----------

TEST(BuildersTest, DdiGraphFromPairs) {
  Graph g = BuildDdiGraph(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(BuildersTest, SsgThreshold) {
  // d0 = {0,1,2}, d1 = {1,2,3}, d2 = {5}: d0-d1 share 2.
  std::vector<std::vector<int32_t>> subs{{0, 1, 2}, {1, 2, 3}, {5}};
  Graph ssg2 = BuildSubstructureSimilarityGraph(subs, 6, 2);
  EXPECT_TRUE(ssg2.HasEdge(0, 1));
  EXPECT_EQ(ssg2.num_edges(), 1);
  Graph ssg3 = BuildSubstructureSimilarityGraph(subs, 6, 3);
  EXPECT_EQ(ssg3.num_edges(), 0);
}

TEST(BuildersTest, DrugHypergraphShape) {
  std::vector<std::vector<int32_t>> subs{{0, 1}, {1, 2}};
  Hypergraph h = BuildDrugHypergraph(subs, 3);
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.num_edges(), 2);
  const auto a = h.EdgeMembers(0);
  const auto b = h.EdgeMembers(1);
  std::vector<int32_t> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  EXPECT_EQ(shared, std::vector<int32_t>{1});
}

}  // namespace
}  // namespace hygnn::graph
