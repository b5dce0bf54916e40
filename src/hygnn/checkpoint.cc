#include "hygnn/checkpoint.h"

#include <cstring>
#include <sstream>

#include "core/fs.h"
#include "tensor/serialize.h"

namespace hygnn::model {

using core::Result;
using core::Status;
using tensor::ReadPod;
using tensor::WritePod;

namespace {

constexpr char kCheckpointMagic[4] = {'H', 'Y', 'G', 'C'};
// v2 added the stopping section's val losses, best_epoch, and the
// best-epoch weight snapshot (early-stop restore across resume).
constexpr uint32_t kCheckpointVersion = 2;

/// Largest per-parameter moment vector Load will believe; anything
/// bigger means a corrupt length field, not a model.
constexpr uint64_t kMaxMomentElements = 1ull << 32;

void WriteFloatVector(std::ostream& out, const std::vector<float>& values) {
  WritePod(out, static_cast<uint64_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

Status ReadFloatVector(std::istream& in, std::vector<float>* values,
                       const char* what) {
  uint64_t count = 0;
  if (!ReadPod(in, &count) || count > kMaxMomentElements) {
    return Status::IoError(std::string("corrupt checkpoint: bad ") + what +
                           " length");
  }
  values->resize(static_cast<size_t>(count));
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(values->size() * sizeof(float)));
  if (!in) {
    return Status::IoError(std::string("truncated checkpoint ") + what);
  }
  return Status::Ok();
}

}  // namespace

std::string CheckpointPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/train.hygc";
}

Status TrainCheckpoint::Save(const std::string& path, int attempts,
                             int backoff_ms) const {
  std::ostringstream out;
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WritePod(out, kCheckpointVersion);
  WritePod(out, next_epoch);
  WriteFloatVector(out, epoch_losses);
  WritePod(out, best_val_loss);
  WritePod(out, epochs_since_improvement);
  WriteFloatVector(out, val_losses);
  WritePod(out, best_epoch);
  WritePod(out, static_cast<uint64_t>(best_weights.size()));
  for (const auto& weights : best_weights) WriteFloatVector(out, weights);
  for (uint64_t word : rng.s) WritePod(out, word);
  WritePod(out, static_cast<uint8_t>(rng.has_cached_normal ? 1 : 0));
  WritePod(out, rng.cached_normal);
  WritePod(out, adam.step);
  WritePod(out, static_cast<uint64_t>(adam.m.size()));
  for (size_t i = 0; i < adam.m.size(); ++i) {
    WriteFloatVector(out, adam.m[i]);
    WriteFloatVector(out, i < adam.v.size() ? adam.v[i]
                                            : std::vector<float>{});
  }
  if (auto status = tensor::SaveTensorsToStream(weights, out);
      !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  return core::WriteFileDurableWithRetry(core::ActiveFileSystem(), path,
                                         out.str(), attempts, backoff_ms);
}

Result<TrainCheckpoint> TrainCheckpoint::Load(const std::string& path) {
  // ReadFileVerified already names the path in its errors.
  auto payload = core::ReadFileVerified(core::ActiveFileSystem(), path);
  if (!payload.ok()) return payload.status();
  std::istringstream in(std::move(payload).value());
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::IoError("not a HyGNN training checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) {
    return Status::IoError("truncated checkpoint header: " + path);
  }
  if (version != kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint format version mismatch: file has version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kCheckpointVersion) + ": " + path);
  }
  TrainCheckpoint ckpt;
  if (!ReadPod(in, &ckpt.next_epoch) || ckpt.next_epoch < 0) {
    return Status::IoError("corrupt checkpoint epoch index: " + path);
  }
  if (auto status = ReadFloatVector(in, &ckpt.epoch_losses, "loss history");
      !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  if (!ReadPod(in, &ckpt.best_val_loss) ||
      !ReadPod(in, &ckpt.epochs_since_improvement)) {
    return Status::IoError("truncated checkpoint stopping state: " + path);
  }
  if (auto status = ReadFloatVector(in, &ckpt.val_losses, "val loss history");
      !status.ok()) {
    return Status(status.code(), status.message() + ": " + path);
  }
  uint64_t num_best = 0;
  if (!ReadPod(in, &ckpt.best_epoch) || !ReadPod(in, &num_best) ||
      ckpt.best_epoch < -1 || num_best > (1u << 20)) {
    return Status::IoError("corrupt checkpoint best-weights header: " + path);
  }
  ckpt.best_weights.resize(static_cast<size_t>(num_best));
  for (uint64_t i = 0; i < num_best; ++i) {
    if (auto status = ReadFloatVector(in, &ckpt.best_weights[i],
                                      "best-epoch weights");
        !status.ok()) {
      return Status(status.code(), status.message() + ": " + path);
    }
  }
  uint8_t has_cached_normal = 0;
  for (uint64_t& word : ckpt.rng.s) {
    if (!ReadPod(in, &word)) {
      return Status::IoError("truncated checkpoint RNG state: " + path);
    }
  }
  if (!ReadPod(in, &has_cached_normal) ||
      !ReadPod(in, &ckpt.rng.cached_normal)) {
    return Status::IoError("truncated checkpoint RNG state: " + path);
  }
  ckpt.rng.has_cached_normal = has_cached_normal != 0;
  uint64_t num_params = 0;
  if (!ReadPod(in, &ckpt.adam.step) || !ReadPod(in, &num_params) ||
      ckpt.adam.step < 0 || num_params > (1u << 20)) {
    return Status::IoError("corrupt checkpoint optimizer header: " + path);
  }
  ckpt.adam.m.resize(static_cast<size_t>(num_params));
  ckpt.adam.v.resize(static_cast<size_t>(num_params));
  for (uint64_t i = 0; i < num_params; ++i) {
    if (auto status = ReadFloatVector(in, &ckpt.adam.m[i], "Adam m moment");
        !status.ok()) {
      return Status(status.code(), status.message() + ": " + path);
    }
    if (auto status = ReadFloatVector(in, &ckpt.adam.v[i], "Adam v moment");
        !status.ok()) {
      return Status(status.code(), status.message() + ": " + path);
    }
  }
  auto weights = tensor::LoadTensorsFromStream(in);
  if (!weights.ok()) {
    return Status(weights.status().code(),
                  weights.status().message() + ": " + path);
  }
  ckpt.weights = std::move(weights).value();
  return ckpt;
}

}  // namespace hygnn::model
