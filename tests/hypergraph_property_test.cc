#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/csr.h"
#include "core/rng.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/hypergraph.h"
#include "graph/random_walk.h"
#include "hygnn/encoder.h"
#include "tensor/segment_index.h"

namespace hygnn::graph {
namespace {

/// A random hypergraph of up to 40 nodes and 25 edges, each edge's
/// members drawn with repeats (merged) and possibly none.
Hypergraph RandomHypergraph(uint64_t seed) {
  core::Rng rng(seed);
  const int32_t num_nodes = 1 + static_cast<int32_t>(rng.UniformInt(40));
  const int32_t num_edges = 1 + static_cast<int32_t>(rng.UniformInt(25));
  std::vector<std::vector<int32_t>> members(
      static_cast<size_t>(num_edges));
  for (auto& edge : members) {
    const size_t degree = rng.UniformInt(
        static_cast<uint64_t>(num_nodes) + 1);
    for (size_t i = 0; i < degree; ++i) {
      edge.push_back(static_cast<int32_t>(rng.UniformInt(num_nodes)));
    }
  }
  return Hypergraph(num_nodes, members);
}

/// Random hypergraphs: structural invariants hold for any membership
/// pattern.
class HypergraphInvariantTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(HypergraphInvariantTest, InvariantsHold) {
  const Hypergraph h = RandomHypergraph(GetParam());

  // Sum of edge degrees == sum of node degrees == incidences.
  int64_t edge_degree_sum = 0;
  for (int32_t e = 0; e < h.num_edges(); ++e) {
    edge_degree_sum += h.EdgeDegree(e);
  }
  int64_t node_degree_sum = 0;
  for (int32_t v = 0; v < h.num_nodes(); ++v) {
    node_degree_sum += h.NodeDegree(v);
  }
  EXPECT_EQ(edge_degree_sum, h.num_incidences());
  EXPECT_EQ(node_degree_sum, h.num_incidences());

  // Membership is symmetric: v in EdgeMembers(e) <=> e in
  // NodeMemberships(v).
  for (int32_t e = 0; e < h.num_edges(); ++e) {
    for (int32_t v : h.EdgeMembers(e)) {
      auto memberships = h.NodeMemberships(v);
      EXPECT_TRUE(std::find(memberships.begin(), memberships.end(), e) !=
                  memberships.end());
    }
  }

  // Both member lists are strictly ascending (so no incidence repeats),
  // and pair_nodes() is the edges' members concatenated.
  const auto ascending = [](std::span<const int32_t> items) {
    return std::adjacent_find(items.begin(), items.end(),
                              std::greater_equal<>()) == items.end();
  };
  std::vector<int32_t> concatenated;
  for (int32_t e = 0; e < h.num_edges(); ++e) {
    const auto members_of_e = h.EdgeMembers(e);
    EXPECT_TRUE(ascending(members_of_e)) << "edge " << e;
    concatenated.insert(concatenated.end(), members_of_e.begin(),
                        members_of_e.end());
  }
  EXPECT_EQ(concatenated, h.pair_nodes());
  for (int32_t v = 0; v < h.num_nodes(); ++v) {
    EXPECT_TRUE(ascending(h.NodeMemberships(v))) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphInvariantTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

/// HyGNN's context over the same random hypergraphs: its two index
/// objects hold the incidence pairs, and the grouping each builds once
/// and shares equals a fresh GroupBy of its ids. The node side, read
/// through the pairs' edges, is every node's memberships.
class ContextGroupingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextGroupingTest, GroupingsMatchFreshGroupBy) {
  const Hypergraph h = RandomHypergraph(GetParam());
  const auto context = model::HypergraphContext::FromHypergraph(h);
  ASSERT_NE(context.pair_nodes, nullptr);
  ASSERT_NE(context.pair_edges, nullptr);
  EXPECT_EQ(context.pair_nodes->ids(), h.pair_nodes());
  EXPECT_EQ(context.pair_edges->ids(), h.pair_edges());
  const std::pair<tensor::SegmentIndexPtr, int64_t> sides[] = {
      {context.pair_nodes, h.num_nodes()},
      {context.pair_edges, h.num_edges()},
  };
  for (const auto& [index, keys] : sides) {
    EXPECT_EQ(index->num_segments(), keys);
    core::Csr fresh;
    fresh.GroupBy(index->ids(), keys);
    const core::Csr& shared = index->groups();
    EXPECT_EQ(shared.offsets, fresh.offsets);
    EXPECT_EQ(shared.indices, fresh.indices);
    EXPECT_EQ(&index->groups(), &shared) << "grouped more than once";
  }
  const core::Csr& by_node = context.pair_nodes->groups();
  for (int32_t v = 0; v < h.num_nodes(); ++v) {
    std::vector<int32_t> edges;
    for (const int32_t pair : by_node.Range(v)) {
      edges.push_back(h.pair_edges()[static_cast<size_t>(pair)]);
    }
    const auto memberships = h.NodeMemberships(v);
    EXPECT_EQ(edges, std::vector<int32_t>(memberships.begin(),
                                          memberships.end()))
        << "node " << v;
  }
  // A copy of the context shares both objects.
  const model::HypergraphContext copy = context;
  EXPECT_EQ(copy.pair_nodes, context.pair_nodes);
  EXPECT_EQ(copy.pair_edges, context.pair_edges);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextGroupingTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

/// node2vec walks stay on edges for any (p, q) combination.
class WalkParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WalkParamTest, BiasedWalksFollowEdges) {
  const auto [p, q] = GetParam();
  Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
  core::Rng rng(9);
  RandomWalkConfig config;
  config.walk_length = 25;
  config.num_walks_per_node = 3;
  config.p = p;
  config.q = q;
  for (const auto& walk : BiasedRandomWalks(g, config, &rng)) {
    for (size_t i = 1; i < walk.size(); ++i) {
      ASSERT_TRUE(g.HasEdge(walk[i - 1], walk[i]))
          << "p=" << p << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PqGrid, WalkParamTest,
    ::testing::Combine(::testing::Values(0.25, 1.0, 4.0),
                       ::testing::Values(0.25, 1.0, 4.0)));

/// Cold-start splits partition the pair set for any held-out subset.
class ColdStartPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColdStartPropertyTest, PartitionAndIsolation) {
  core::Rng rng(GetParam());
  data::DatasetConfig config;
  config.num_drugs = 30;
  config.seed = GetParam();
  auto dataset = data::GenerateDataset(config).value();
  auto pairs = data::BuildBalancedPairs(dataset, &rng);

  const size_t held_count = 1 + rng.UniformInt(5);
  std::vector<int32_t> held;
  for (size_t index : rng.SampleWithoutReplacement(30, held_count)) {
    held.push_back(static_cast<int32_t>(index));
  }
  auto split = data::ColdStartSplit(pairs, held);
  EXPECT_EQ(split.train.size() + split.test.size(), pairs.size());
  std::set<int32_t> held_set(held.begin(), held.end());
  for (const auto& pair : split.train) {
    EXPECT_FALSE(held_set.count(pair.a) || held_set.count(pair.b));
  }
  for (const auto& pair : split.test) {
    EXPECT_TRUE(held_set.count(pair.a) || held_set.count(pair.b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColdStartPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace hygnn::graph
