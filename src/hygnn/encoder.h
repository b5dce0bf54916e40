#ifndef HYGNN_HYGNN_ENCODER_H_
#define HYGNN_HYGNN_ENCODER_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "graph/hypergraph.h"
#include "nn/module.h"
#include "tensor/segment_index.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace hygnn::model {

/// Static tensors derived from a drug hypergraph, shared by every
/// forward pass: the COO incidence pairs (the rows the two attention
/// softmaxes run over) and the sparse edge-feature matrix H^T (each
/// drug's binary substructure-membership row, the encoder input F).
struct HypergraphContext {
  /// Per incidence: its substructure id, over num_nodes segments, and
  /// its drug id, over num_edges segments. Every encoder op that reads
  /// the pairs records one of these two objects, so each is validated
  /// once and grouped once for the context's lifetime, and copies of the
  /// context share them.
  tensor::SegmentIndexPtr pair_nodes;
  tensor::SegmentIndexPtr pair_edges;
  int32_t num_nodes = 0;
  int32_t num_edges = 0;
  /// [num_edges, num_nodes] binary CSR — row j is drug j's substructure
  /// indicator (the paper's F = H^T input features).
  std::shared_ptr<const tensor::CsrMatrix> edge_features;

  /// Builds the context from a hypergraph.
  static HypergraphContext FromHypergraph(const graph::Hypergraph& graph);
};

/// Attention weights captured from the last forward pass (detached from
/// autograd). Entry i corresponds to incidence pair i of the context.
struct AttentionSnapshot {
  /// Hyperedge-level attention Y_ij (eq. 5): weight of hyperedge
  /// pair_edges[i] in the representation of node pair_nodes[i].
  std::vector<float> hyperedge_level;
  /// Node-level attention X_ji (eq. 8): weight of node pair_nodes[i] in
  /// the representation of hyperedge pair_edges[i].
  std::vector<float> node_level;
};

/// Configuration of one HyGNN encoder layer.
struct EncoderConfig {
  int64_t hidden_dim = 64;  // d_hid of W_q projection
  int64_t output_dim = 64;  // d' of W_p projection (drug embedding size)
  float leaky_slope = 0.2f;
  float dropout = 0.0f;
  /// When false, both aggregation levels use uniform (mean) weights
  /// instead of learned attention — the ablation that isolates the
  /// paper's two-level attention contribution.
  bool use_attention = true;
};

/// The paper's novel *hypergraph edge encoder* (§III-C1): one layer of
/// two stacked attentions producing hyperedge (drug) embeddings.
///
///   hyperedge-level (eqs. 4-6): node repr p_i aggregates the projected
///     features W_q q_j of its incident hyperedges, weighted by
///     Y_ij = softmax_j( g1 . LeakyReLU(W_q q_j) ) over e_j in E_i;
///   node-level (eqs. 7-9): hyperedge repr q_j aggregates the projected
///     node features W_p p_i of its members, weighted by
///     X_ji = softmax_i( g2 . LeakyReLU(W_p p_i || W_q q_j) ).
///
/// Both softmaxes are segment-softmaxes over the incidence pairs, which
/// is the memory-efficient formulation: nothing larger than
/// O(nnz(H) * dim) is ever materialized.
class HypergraphEdgeEncoder : public nn::Module {
 public:
  /// `input_dim` is the column count of the edge-feature matrix
  /// (= num_nodes when features are H^T).
  HypergraphEdgeEncoder(int64_t input_dim, const EncoderConfig& config,
                        core::Rng* rng);

  /// Returns drug (hyperedge) embeddings [num_edges, output_dim] from
  /// the context's sparse H^T edge features (first-layer form of
  /// eq. 1). When `attention` is non-null, the detached attention
  /// coefficients of this pass are stored there. `rng` is needed only
  /// when dropout is enabled and `training` is true.
  tensor::Tensor Forward(const HypergraphContext& context, bool training,
                         core::Rng* rng,
                         AttentionSnapshot* attention = nullptr) const;

  /// Same layer applied to dense edge features [num_edges, input_dim]
  /// — the l > 1 form of eq. 1, where the previous layer's hyperedge
  /// embeddings are the new F^l.
  tensor::Tensor ForwardDense(const HypergraphContext& context,
                              const tensor::Tensor& edge_features,
                              bool training, core::Rng* rng,
                              AttentionSnapshot* attention = nullptr) const;

  std::vector<tensor::Tensor> Parameters() const override;

  const EncoderConfig& config() const { return config_; }

  /// Weight accessors for inference paths that mirror the forward pass
  /// outside autograd (serve::EmbeddingStore's incremental encoder).
  const tensor::Tensor& w_q() const { return w_q_; }
  const tensor::Tensor& g1() const { return g1_; }
  const tensor::Tensor& w_p() const { return w_p_; }
  const tensor::Tensor& g2() const { return g2_; }

 private:
  /// Shared body: `q_proj` is the projected edge feature W_q F^l.
  tensor::Tensor ForwardFromProjection(
      const HypergraphContext& context, tensor::Tensor q_proj,
      bool training, core::Rng* rng, AttentionSnapshot* attention) const;

  EncoderConfig config_;
  tensor::Tensor w_q_;  // [input_dim, hidden_dim]
  tensor::Tensor g1_;   // [hidden_dim, 1]
  tensor::Tensor w_p_;  // [hidden_dim, output_dim]
  tensor::Tensor g2_;   // [output_dim + hidden_dim, 1]
};

/// A stack of HyGNN encoder layers (eq. 1 applied `num_layers` times).
/// The paper's model is a single layer; deeper stacks are provided for
/// the depth ablation.
class StackedEncoder : public nn::Module {
 public:
  StackedEncoder(int64_t input_dim, const EncoderConfig& config,
                 int32_t num_layers, core::Rng* rng);

  /// Runs all layers; `attention`, when given, receives the snapshot of
  /// the LAST layer (the one producing the final drug embeddings).
  tensor::Tensor Forward(const HypergraphContext& context, bool training,
                         core::Rng* rng,
                         AttentionSnapshot* attention = nullptr) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int32_t num_layers() const {
    return static_cast<int32_t>(layers_.size());
  }

  /// Layer `i` of the stack, 0-based.
  const HypergraphEdgeEncoder& layer(int32_t i) const {
    return *layers_[static_cast<size_t>(i)];
  }

 private:
  std::vector<std::unique_ptr<HypergraphEdgeEncoder>> layers_;
};

}  // namespace hygnn::model

#endif  // HYGNN_HYGNN_ENCODER_H_
