#ifndef HYGNN_HYGNN_MODEL_H_
#define HYGNN_HYGNN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "data/drug.h"
#include "hygnn/decoder.h"
#include "hygnn/encoder.h"
#include "nn/module.h"

namespace hygnn::chem {
class SubstructureVocabulary;
}  // namespace hygnn::chem

namespace hygnn::model {

/// Full HyGNN configuration (paper §IV-C: single-layer encoder with two
/// attention levels, LeakyReLU on the encoder side, ReLU inside the MLP
/// decoder, Adam at lr = 0.01).
struct HyGnnConfig {
  EncoderConfig encoder;
  /// Encoder depth (eq. 1 applied num_layers times). The paper uses 1.
  int32_t num_layers = 1;
  DecoderKind decoder = DecoderKind::kMlp;
  int64_t decoder_hidden_dim = 64;
  float decoder_dropout = 0.0f;
};

/// End-to-end HyGNN: hypergraph edge encoder + pairwise decoder.
class HyGnnModel : public nn::Module {
 public:
  /// `input_dim` is the encoder input width (= number of substructure
  /// nodes when using H^T features).
  HyGnnModel(int64_t input_dim, const HyGnnConfig& config, core::Rng* rng);

  /// Embeds every drug (hyperedge) in the context:
  /// [num_edges, output_dim].
  tensor::Tensor EmbedDrugs(const HypergraphContext& context, bool training,
                            core::Rng* rng,
                            AttentionSnapshot* attention = nullptr) const;

  /// Raw interaction logits for the given pairs (one row per pair),
  /// given precomputed drug embeddings.
  tensor::Tensor ScorePairs(const tensor::Tensor& drug_embeddings,
                            const std::vector<data::LabeledPair>& pairs,
                            bool training, core::Rng* rng) const;

  /// Convenience: encoder + decoder in one call.
  tensor::Tensor Forward(const HypergraphContext& context,
                         const std::vector<data::LabeledPair>& pairs,
                         bool training, core::Rng* rng) const;

  /// Sigmoid probabilities for pairs (inference mode, no autograd use).
  std::vector<float> PredictProbabilities(
      const HypergraphContext& context,
      const std::vector<data::LabeledPair>& pairs) const;

  std::vector<tensor::Tensor> Parameters() const override;

  /// Writes a self-describing serve::ModelBundle (config + vocabulary +
  /// weights) that Load can restore with no caller-supplied
  /// configuration. Implemented in src/serve/bundle.cc — callers must
  /// link hygnn_serve.
  core::Status Save(const std::string& path,
                    const chem::SubstructureVocabulary& vocabulary) const;

  /// Rebuilds a model from a Save file. When `vocabulary` is non-null
  /// it receives the bundled substructure vocabulary (needed to
  /// featurize new SMILES against the model). Implemented in
  /// src/serve/bundle.cc — callers must link hygnn_serve.
  static core::Result<HyGnnModel> Load(
      const std::string& path,
      chem::SubstructureVocabulary* vocabulary = nullptr);

  const HyGnnConfig& config() const { return config_; }
  const StackedEncoder& encoder() const { return encoder_; }
  const Decoder& decoder() const { return *decoder_; }
  /// Encoder input width the model was constructed with (= substructure
  /// vocabulary size when features are H^T).
  int64_t input_dim() const { return input_dim_; }

 private:
  int64_t input_dim_;
  HyGnnConfig config_;
  StackedEncoder encoder_;
  std::unique_ptr<Decoder> decoder_;
};

}  // namespace hygnn::model

#endif  // HYGNN_HYGNN_MODEL_H_
