#ifndef HYGNN_NN_GNN_LAYERS_H_
#define HYGNN_NN_GNN_LAYERS_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "graph/graph.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/segment_index.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace hygnn::nn {

/// Graph convolution layer (Kipf & Welling): H' = Â H W + b with
/// Â = D^-1/2 (A+I) D^-1/2 precomputed from the graph.
class GcnConv : public Module {
 public:
  GcnConv(int64_t in_features, int64_t out_features, core::Rng* rng);

  /// `adj` must be the graph's NormalizedAdjacency().
  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::CsrMatrix>& adj,
      const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

 private:
  Linear linear_;
};

/// GraphSAGE layer with the mean aggregator:
/// H' = concat(H, D^-1 A H) W + b.
class SageConv : public Module {
 public:
  SageConv(int64_t in_features, int64_t out_features, core::Rng* rng);

  /// `mean_adj` must be the graph's MeanAdjacency().
  tensor::Tensor Forward(
      const std::shared_ptr<const tensor::CsrMatrix>& mean_adj,
      const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

 private:
  Linear linear_;  // input dim = 2 * in_features
};

/// Precomputed directed edge structure (with self-loops) for GAT: each
/// edge's source and target node as index objects (one segment per graph
/// node), built once, so every forward's gathers and segment ops record
/// them by pointer and group each side once.
struct GatEdgeIndex {
  tensor::SegmentIndexPtr sources;
  tensor::SegmentIndexPtr targets;

  /// Builds from an undirected graph, adding one self-loop per node.
  static GatEdgeIndex FromGraph(const graph::Graph& graph);
};

/// Graph attention layer (Velickovic et al.), multi-head with
/// concatenated heads. Attention logits use the standard split form
/// e_ij = LeakyReLU(a_src . Wh_i + a_tgt . Wh_j), softmax over each
/// target's incoming edges.
class GatConv : public Module {
 public:
  /// Output dimension is num_heads * head_features.
  GatConv(int64_t in_features, int64_t head_features, int32_t num_heads,
          core::Rng* rng, float negative_slope = 0.2f);

  tensor::Tensor Forward(const GatEdgeIndex& edges,
                         const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

 private:
  struct Head {
    tensor::Tensor weight;   // [in, head_features]
    tensor::Tensor attn_src; // [head_features, 1]
    tensor::Tensor attn_tgt; // [head_features, 1]
  };
  std::vector<Head> heads_;
  float negative_slope_;
};

}  // namespace hygnn::nn

#endif  // HYGNN_NN_GNN_LAYERS_H_
