#include "hygnn/encoder.h"

#include "core/logging.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace hygnn::model {

HypergraphContext HypergraphContext::FromHypergraph(
    const graph::Hypergraph& graph) {
  HypergraphContext context;
  context.pair_nodes = std::make_shared<tensor::SegmentIndex>(
      graph.pair_nodes(), graph.num_nodes());
  context.pair_edges = std::make_shared<tensor::SegmentIndex>(
      graph.pair_edges(), graph.num_edges());
  context.num_nodes = graph.num_nodes();
  context.num_edges = graph.num_edges();
  std::vector<float> ones(graph.pair_nodes().size(), 1.0f);
  context.edge_features = tensor::CsrMatrix::FromCoo(
      graph.num_edges(), graph.num_nodes(), graph.pair_edges(),
      graph.pair_nodes(), ones);
  return context;
}

HypergraphEdgeEncoder::HypergraphEdgeEncoder(int64_t input_dim,
                                             const EncoderConfig& config,
                                             core::Rng* rng)
    : config_(config),
      w_q_(tensor::XavierUniform(input_dim, config.hidden_dim, rng)),
      g1_(tensor::XavierUniform(config.hidden_dim, 1, rng)),
      w_p_(tensor::XavierUniform(config.hidden_dim, config.output_dim, rng)),
      g2_(tensor::XavierUniform(config.output_dim + config.hidden_dim, 1,
                                rng)) {}

tensor::Tensor HypergraphEdgeEncoder::Forward(
    const HypergraphContext& context, bool training, core::Rng* rng,
    AttentionSnapshot* attention) const {
  HYGNN_CHECK(context.edge_features != nullptr);
  HYGNN_CHECK_EQ(context.edge_features->cols(), w_q_.rows());
  // Projected hyperedge features W_q q_j  [E, hidden].
  return ForwardFromProjection(context,
                               tensor::SpMM(context.edge_features, w_q_),
                               training, rng, attention);
}

tensor::Tensor HypergraphEdgeEncoder::ForwardDense(
    const HypergraphContext& context, const tensor::Tensor& edge_features,
    bool training, core::Rng* rng, AttentionSnapshot* attention) const {
  HYGNN_CHECK(edge_features.defined());
  HYGNN_CHECK_EQ(edge_features.rows(), context.num_edges);
  HYGNN_CHECK_EQ(edge_features.cols(), w_q_.rows());
  return ForwardFromProjection(context,
                               tensor::MatMul(edge_features, w_q_),
                               training, rng, attention);
}

tensor::Tensor HypergraphEdgeEncoder::ForwardFromProjection(
    const HypergraphContext& context, tensor::Tensor q_proj, bool training,
    core::Rng* rng, AttentionSnapshot* attention) const {
  if (config_.dropout > 0.0f) {
    q_proj = tensor::Dropout(q_proj, config_.dropout, training, rng);
  }

  // ----- Hyperedge-level attention (eqs. 4-6) -----
  // e_j = LeakyReLU(W_q q_j); score_j = g1 . e_j, broadcast to pairs.
  // With attention disabled the scores are constant, so the segment
  // softmax degenerates to uniform (mean) weights.
  tensor::Tensor y;
  if (config_.use_attention) {
    tensor::Tensor e_feat = tensor::LeakyRelu(q_proj, config_.leaky_slope);
    tensor::Tensor edge_scores = tensor::MatMul(e_feat, g1_);  // [E, 1]
    tensor::Tensor pair_scores_edge =
        tensor::IndexSelectRows(edge_scores, context.pair_edges);  // [P, 1]
    // Y_ij: softmax over the hyperedges incident to each node v_i.
    y = tensor::SegmentSoftmax(pair_scores_edge, context.pair_nodes);
  } else {
    tensor::Tensor zeros = tensor::Tensor::Zeros(context.pair_nodes->size(), 1);
    y = tensor::SegmentSoftmax(zeros, context.pair_nodes);
  }
  // p_i = LeakyReLU( sum_j Y_ij W_q q_j )  [V, hidden]: one weighted
  // segment sum over the gathered rows, with no [P, hidden] product.
  tensor::Tensor edge_messages =
      tensor::IndexSelectRows(q_proj, context.pair_edges);  // [P, hidden]
  tensor::Tensor p = tensor::LeakyRelu(
      tensor::WeightedSegmentSum(edge_messages, y, context.pair_nodes),
      config_.leaky_slope);

  // ----- Node-level attention (eqs. 7-9) -----
  // W_p p_i  [V, out]; per-pair score g2 . LeakyReLU(W_p p_i || W_q q_j),
  // one op that reads W_q q_j through pair_edges.
  tensor::Tensor p_proj = tensor::MatMul(p, w_p_);
  tensor::Tensor pair_node_feat =
      tensor::IndexSelectRows(p_proj, context.pair_nodes);  // [P, out]
  tensor::Tensor x;
  if (config_.use_attention) {
    tensor::Tensor pair_scores_node = tensor::LeakyPairScore(
        pair_node_feat, q_proj, context.pair_edges, g2_,
        config_.leaky_slope);  // [P, 1]
    // X_ji: softmax over the member nodes of each hyperedge e_j.
    x = tensor::SegmentSoftmax(pair_scores_node, context.pair_edges);
  } else {
    tensor::Tensor zeros = tensor::Tensor::Zeros(context.pair_edges->size(), 1);
    x = tensor::SegmentSoftmax(zeros, context.pair_edges);
  }
  // q_j = LeakyReLU( sum_i X_ji W_p p_i )  [E, out].
  tensor::Tensor q_out = tensor::LeakyRelu(
      tensor::WeightedSegmentSum(pair_node_feat, x, context.pair_edges),
      config_.leaky_slope);

  if (attention != nullptr) {
    attention->hyperedge_level.assign(y.data(), y.data() + y.size());
    attention->node_level.assign(x.data(), x.data() + x.size());
  }
  return q_out;
}

std::vector<tensor::Tensor> HypergraphEdgeEncoder::Parameters() const {
  return {w_q_, g1_, w_p_, g2_};
}

StackedEncoder::StackedEncoder(int64_t input_dim,
                               const EncoderConfig& config,
                               int32_t num_layers, core::Rng* rng) {
  HYGNN_CHECK_GE(num_layers, 1);
  layers_.push_back(
      std::make_unique<HypergraphEdgeEncoder>(input_dim, config, rng));
  for (int32_t layer = 1; layer < num_layers; ++layer) {
    // Deeper layers consume the previous layer's hyperedge embeddings.
    layers_.push_back(std::make_unique<HypergraphEdgeEncoder>(
        config.output_dim, config, rng));
  }
}

tensor::Tensor StackedEncoder::Forward(const HypergraphContext& context,
                                       bool training, core::Rng* rng,
                                       AttentionSnapshot* attention) const {
  AttentionSnapshot* last_only =
      layers_.size() == 1 ? attention : nullptr;
  tensor::Tensor q = layers_[0]->Forward(context, training, rng, last_only);
  for (size_t layer = 1; layer < layers_.size(); ++layer) {
    AttentionSnapshot* sink =
        layer + 1 == layers_.size() ? attention : nullptr;
    q = layers_[layer]->ForwardDense(context, q, training, rng, sink);
  }
  return q;
}

std::vector<tensor::Tensor> StackedEncoder::Parameters() const {
  std::vector<tensor::Tensor> parameters;
  for (const auto& layer : layers_) {
    auto params = layer->Parameters();
    parameters.insert(parameters.end(), params.begin(), params.end());
  }
  return parameters;
}

}  // namespace hygnn::model
