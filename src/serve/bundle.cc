#include "serve/bundle.h"

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/fs.h"
#include "core/rng.h"
#include "tensor/serialize.h"

namespace hygnn::serve {

using core::Result;
using core::Status;
using tensor::ReadPod;
using tensor::WritePod;

namespace {

constexpr char kBundleMagic[4] = {'H', 'Y', 'G', 'B'};

/// Longest substructure string Load will accept; anything larger means
/// a corrupt length field, not chemistry.
constexpr uint32_t kMaxTokenBytes = 1u << 16;

void WriteConfig(std::ostream& out, int64_t input_dim,
                 const model::HyGnnConfig& config) {
  WritePod(out, input_dim);
  WritePod(out, config.num_layers);
  WritePod(out, config.encoder.hidden_dim);
  WritePod(out, config.encoder.output_dim);
  WritePod(out, config.encoder.leaky_slope);
  WritePod(out, config.encoder.dropout);
  WritePod(out, static_cast<uint8_t>(config.encoder.use_attention ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(config.decoder));
  WritePod(out, config.decoder_hidden_dim);
  WritePod(out, config.decoder_dropout);
}

Status ReadConfig(std::istream& in, int64_t* input_dim,
                  model::HyGnnConfig* config) {
  uint8_t use_attention = 0;
  uint8_t decoder_kind = 0;
  if (!ReadPod(in, input_dim) || !ReadPod(in, &config->num_layers) ||
      !ReadPod(in, &config->encoder.hidden_dim) ||
      !ReadPod(in, &config->encoder.output_dim) ||
      !ReadPod(in, &config->encoder.leaky_slope) ||
      !ReadPod(in, &config->encoder.dropout) ||
      !ReadPod(in, &use_attention) || !ReadPod(in, &decoder_kind) ||
      !ReadPod(in, &config->decoder_hidden_dim) ||
      !ReadPod(in, &config->decoder_dropout)) {
    return Status::IoError("truncated bundle config section");
  }
  config->encoder.use_attention = use_attention != 0;
  if (decoder_kind >
      static_cast<uint8_t>(model::DecoderKind::kMlp)) {
    return Status::IoError("unknown decoder kind " +
                           std::to_string(decoder_kind) + " in bundle");
  }
  config->decoder = static_cast<model::DecoderKind>(decoder_kind);
  if (*input_dim <= 0 || config->num_layers < 1 ||
      config->encoder.hidden_dim <= 0 || config->encoder.output_dim <= 0) {
    return Status::IoError("corrupt bundle config: non-positive dimension");
  }
  return Status::Ok();
}

void WriteVocabulary(std::ostream& out,
                     const chem::SubstructureVocabulary& vocabulary) {
  WritePod(out, static_cast<uint32_t>(vocabulary.size()));
  for (int32_t id = 0; id < vocabulary.size(); ++id) {
    const std::string& text = vocabulary.Text(id);
    WritePod(out, static_cast<uint32_t>(text.size()));
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    WritePod(out, vocabulary.Frequency(id));
  }
}

Status ReadVocabulary(std::istream& in,
                      chem::SubstructureVocabulary* vocabulary) {
  uint32_t count = 0;
  if (!ReadPod(in, &count)) {
    return Status::IoError("truncated bundle vocabulary section");
  }
  for (uint32_t id = 0; id < count; ++id) {
    uint32_t length = 0;
    if (!ReadPod(in, &length) || length > kMaxTokenBytes) {
      return Status::IoError("corrupt vocabulary entry length at id " +
                             std::to_string(id));
    }
    std::string text(length, '\0');
    in.read(text.data(), length);
    int64_t frequency = 0;
    if (!in || !ReadPod(in, &frequency)) {
      return Status::IoError("truncated vocabulary entry at id " +
                             std::to_string(id));
    }
    const int32_t assigned = vocabulary->AddOrGet(text);
    if (assigned != static_cast<int32_t>(id)) {
      return Status::IoError("duplicate vocabulary entry \"" + text +
                             "\" at id " + std::to_string(id));
    }
    vocabulary->CountOccurrence(assigned, frequency);
  }
  return Status::Ok();
}

}  // namespace

std::vector<std::string> WeightNames(const model::HyGnnConfig& config,
                                     size_t num_parameters) {
  std::vector<std::string> names;
  names.reserve(num_parameters);
  static const char* kEncoderRole[] = {"w_q", "g1", "w_p", "g2"};
  for (int32_t layer = 0; layer < config.num_layers; ++layer) {
    for (const char* role : kEncoderRole) {
      names.push_back("encoder.layer" + std::to_string(layer) + "." + role);
    }
  }
  size_t decoder_index = 0;
  while (names.size() < num_parameters) {
    names.push_back("decoder.param" + std::to_string(decoder_index++));
  }
  return names;
}

Status ModelBundle::Save(const model::HyGnnModel& model,
                         const chem::SubstructureVocabulary& vocabulary,
                         const std::string& path) {
  if (vocabulary.size() != model.input_dim()) {
    return Status::InvalidArgument(
        "vocabulary/model mismatch: vocabulary has " +
        std::to_string(vocabulary.size()) + " substructures, model input "
        "dimension is " + std::to_string(model.input_dim()));
  }
  // Serialize in memory, then commit through the crash-safe write path
  // (temp + fsync + rename, CRC32 footer) of the active filesystem.
  std::ostringstream out;
  out.write(kBundleMagic, sizeof(kBundleMagic));
  WritePod(out, kBundleVersion);
  WriteConfig(out, model.input_dim(), model.config());
  WriteVocabulary(out, vocabulary);
  const auto parameters = model.Parameters();
  const auto names = WeightNames(model.config(), parameters.size());
  std::vector<std::pair<std::string, tensor::Tensor>> named;
  named.reserve(parameters.size());
  for (size_t i = 0; i < parameters.size(); ++i) {
    named.emplace_back(names[i], parameters[i]);
  }
  if (auto status = tensor::SaveTensorsToStream(named, out); !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  return core::WriteFileDurable(core::ActiveFileSystem(), path, out.str());
}

Result<ModelBundle> ModelBundle::Load(const std::string& path) {
  auto raw = core::ActiveFileSystem().ReadFile(path);
  if (!raw.ok()) return raw.status();
  // Check the magic on the raw bytes before the integrity footer, so a
  // wrong-format file is reported as such rather than as "corrupt".
  if (raw.value().size() < sizeof(kBundleMagic) ||
      std::memcmp(raw.value().data(), kBundleMagic, sizeof(kBundleMagic)) !=
          0) {
    return Status::IoError("not a HyGNN model bundle: " + path);
  }
  auto payload = core::StripIntegrityFooter(raw.value());
  if (!payload.ok()) {
    return Status(payload.status().code(),
                  payload.status().message() + ": " + path);
  }
  std::istringstream in{std::string(payload.value())};
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBundleMagic, sizeof(kBundleMagic)) != 0) {
    return Status::IoError("not a HyGNN model bundle: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) {
    return Status::IoError("truncated bundle header: " + path);
  }
  if (version != kBundleVersion) {
    return Status::FailedPrecondition(
        "bundle format version mismatch: file has version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kBundleVersion) + ": " + path);
  }
  ModelBundle bundle;
  if (auto status = ReadConfig(in, &bundle.input_dim, &bundle.config);
      !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  if (auto status = ReadVocabulary(in, &bundle.vocabulary); !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  if (bundle.vocabulary.size() != bundle.input_dim) {
    return Status::IoError(
        "corrupt bundle: vocabulary has " +
        std::to_string(bundle.vocabulary.size()) +
        " substructures but config says input dimension " +
        std::to_string(bundle.input_dim) + ": " + path);
  }
  auto weights = tensor::LoadTensorsFromStream(in);
  if (!weights.ok()) {
    return Status(weights.status().code(),
                  weights.status().message() + ": " + path);
  }
  bundle.weights = std::move(weights).value();
  return bundle;
}

Result<model::HyGnnModel> ModelBundle::BuildModel() const {
  // Weights are fully overwritten below, so the init seed is arbitrary
  // but fixed (keeps BuildModel deterministic even on partial failure).
  core::Rng rng(0);
  model::HyGnnModel model(input_dim, config, &rng);
  auto parameters = model.Parameters();
  if (auto status = tensor::RestoreParameters(weights, &parameters);
      !status.ok()) {
    return Status(status.code(),
                  "bundle weights do not fit the bundled config (" +
                      status.message() + ")");
  }
  return model;
}

}  // namespace hygnn::serve

namespace hygnn::model {

core::Status HyGnnModel::Save(
    const std::string& path,
    const chem::SubstructureVocabulary& vocabulary) const {
  return serve::ModelBundle::Save(*this, vocabulary, path);
}

core::Result<HyGnnModel> HyGnnModel::Load(
    const std::string& path, chem::SubstructureVocabulary* vocabulary) {
  auto bundle = serve::ModelBundle::Load(path);
  if (!bundle.ok()) return bundle.status();
  auto model = bundle.value().BuildModel();
  if (!model.ok()) return model.status();
  if (vocabulary != nullptr) {
    *vocabulary = std::move(bundle.value().vocabulary);
  }
  return std::move(model).value();
}

}  // namespace hygnn::model
