#ifndef HYGNN_TENSOR_SERIALIZE_H_
#define HYGNN_TENSOR_SERIALIZE_H_

#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// Writes `value`'s bytes as they sit in memory: the one field codec of
/// every binary section (tensor tables, bundles, checkpoints).
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads back what WritePod wrote; false once the stream has failed
/// (a short read).
template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

/// Writes named tensors as one tensor-table section (magic, version,
/// then each name, shape and little-endian float payload) into `out` at
/// its current position. The table has no file form of its own: it is
/// embedded in a larger container (serve::ModelBundle after its config
/// and vocabulary sections, a model::TrainCheckpoint after its
/// optimizer and RNG state), which owns the durable write and the
/// checksum.
core::Status SaveTensorsToStream(
    const std::vector<std::pair<std::string, Tensor>>& named_tensors,
    std::ostream& out);

/// Reads one tensor-table section starting at the current position of
/// `in` and leaves the stream positioned just past it. Loaded tensors
/// are leaves with requires_grad = false.
core::Result<std::vector<std::pair<std::string, Tensor>>>
LoadTensorsFromStream(std::istream& in);

/// Copies loaded values into existing parameters by position; fails on
/// count or shape mismatch with a message naming both sides. Gradients
/// and optimizer state are untouched.
core::Status RestoreParameters(
    const std::vector<std::pair<std::string, Tensor>>& loaded,
    std::vector<Tensor>* parameters);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_SERIALIZE_H_
