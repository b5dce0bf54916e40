#ifndef HYGNN_SERVE_BUNDLE_H_
#define HYGNN_SERVE_BUNDLE_H_

#include <string>
#include <utility>
#include <vector>

#include "chem/vocab.h"
#include "core/status.h"
#include "hygnn/model.h"
#include "tensor/tensor.h"

namespace hygnn::serve {

/// Format version written by ModelBundle::Save; Load rejects any other
/// value with a typed error naming both versions.
inline constexpr uint32_t kBundleVersion = 1;

/// A self-describing, single-file HyGNN checkpoint: the only file form
/// of a model's weights. A bundle carries everything needed to
/// reconstruct a servable model with no caller-supplied configuration:
///
///   | section  | contents                                            |
///   |----------|-----------------------------------------------------|
///   | header   | magic "HYGB", u32 format version                    |
///   | config   | input_dim + full HyGnnConfig (encoder + decoder)    |
///   | vocab    | substructure strings + occurrence counts, by id     |
///   | weights  | named tensor table (tensor/serialize "HYGT" section)|
///
/// All integers are little-endian fixed-width; tensors are row-major
/// float32. Load validates the magic, the version, the config/vocab
/// agreement (input_dim == vocabulary size), and every weight shape
/// against the config-constructed model, returning core::Status errors
/// that name both sides of any mismatch.
struct ModelBundle {
  int64_t input_dim = 0;
  model::HyGnnConfig config;
  chem::SubstructureVocabulary vocabulary;
  /// Weights in model Parameters() order, named by role (e.g.
  /// "encoder.layer0.w_q", "decoder.param2").
  std::vector<std::pair<std::string, tensor::Tensor>> weights;

  /// Writes `model` + `vocabulary` as one bundle file. Fails when the
  /// vocabulary size disagrees with the model's input dimension.
  static core::Status Save(const model::HyGnnModel& model,
                           const chem::SubstructureVocabulary& vocabulary,
                           const std::string& path);

  /// Parses and validates a Save file.
  static core::Result<ModelBundle> Load(const std::string& path);

  /// Constructs a HyGnnModel from the bundled config and installs the
  /// bundled weights. Fails when a weight shape disagrees with what the
  /// config dictates (a hand-edited or mixed-version bundle).
  core::Result<model::HyGnnModel> BuildModel() const;
};

/// Semantic weight names in Parameters() order for a model of the given
/// configuration — the names Save writes and error messages cite.
std::vector<std::string> WeightNames(const model::HyGnnConfig& config,
                                     size_t num_parameters);

}  // namespace hygnn::serve

#endif  // HYGNN_SERVE_BUNDLE_H_
