#include "nn/gnn_layers.h"

#include "core/logging.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace hygnn::nn {

GcnConv::GcnConv(int64_t in_features, int64_t out_features, core::Rng* rng)
    : linear_(in_features, out_features, /*use_bias=*/true, rng) {}

tensor::Tensor GcnConv::Forward(
    const std::shared_ptr<const tensor::CsrMatrix>& adj,
    const tensor::Tensor& x) const {
  return linear_.Forward(tensor::SpMM(adj, x));
}

std::vector<tensor::Tensor> GcnConv::Parameters() const {
  return linear_.Parameters();
}

SageConv::SageConv(int64_t in_features, int64_t out_features, core::Rng* rng)
    : linear_(2 * in_features, out_features, /*use_bias=*/true, rng) {}

tensor::Tensor SageConv::Forward(
    const std::shared_ptr<const tensor::CsrMatrix>& mean_adj,
    const tensor::Tensor& x) const {
  tensor::Tensor neighborhood = tensor::SpMM(mean_adj, x);
  return linear_.Forward(tensor::ConcatCols(x, neighborhood));
}

std::vector<tensor::Tensor> SageConv::Parameters() const {
  return linear_.Parameters();
}

GatEdgeIndex GatEdgeIndex::FromGraph(const graph::Graph& graph) {
  GatEdgeIndex index;
  index.num_nodes = graph.num_nodes();
  graph.DirectedEdges(&index.sources, &index.targets);
  for (int32_t v = 0; v < graph.num_nodes(); ++v) {
    index.sources.push_back(v);
    index.targets.push_back(v);
  }
  return index;
}

GatConv::GatConv(int64_t in_features, int64_t head_features,
                 int32_t num_heads, core::Rng* rng, float negative_slope)
    : negative_slope_(negative_slope) {
  HYGNN_CHECK_GT(num_heads, 0);
  for (int32_t h = 0; h < num_heads; ++h) {
    Head head;
    head.weight = tensor::XavierUniform(in_features, head_features, rng);
    head.attn_src = tensor::XavierUniform(head_features, 1, rng);
    head.attn_tgt = tensor::XavierUniform(head_features, 1, rng);
    heads_.push_back(std::move(head));
  }
}

tensor::Tensor GatConv::Forward(const GatEdgeIndex& edges,
                                const tensor::Tensor& x) const {
  HYGNN_CHECK_EQ(x.rows(), edges.num_nodes);
  tensor::Tensor output;
  for (const Head& head : heads_) {
    tensor::Tensor h = tensor::MatMul(x, head.weight);  // [n, f]
    tensor::Tensor score_src = tensor::MatMul(h, head.attn_src);  // [n, 1]
    tensor::Tensor score_tgt = tensor::MatMul(h, head.attn_tgt);  // [n, 1]
    tensor::Tensor edge_scores = tensor::LeakyRelu(
        tensor::Add(tensor::IndexSelectRows(score_src, edges.sources),
                    tensor::IndexSelectRows(score_tgt, edges.targets)),
        negative_slope_);
    tensor::Tensor alpha = tensor::SegmentSoftmax(
        edge_scores, edges.targets, edges.num_nodes);
    tensor::Tensor messages = tensor::IndexSelectRows(h, edges.sources);
    tensor::Tensor aggregated = tensor::WeightedSegmentSum(
        messages, alpha, edges.targets, edges.num_nodes);
    output = output.defined() ? tensor::ConcatCols(output, aggregated)
                              : aggregated;
  }
  return output;
}

std::vector<tensor::Tensor> GatConv::Parameters() const {
  std::vector<tensor::Tensor> parameters;
  for (const Head& head : heads_) {
    parameters.push_back(head.weight);
    parameters.push_back(head.attn_src);
    parameters.push_back(head.attn_tgt);
  }
  return parameters;
}

}  // namespace hygnn::nn
