#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

namespace hygnn::tensor {

using core::Result;
using core::Status;

namespace {

constexpr char kMagic[4] = {'H', 'Y', 'G', 'T'};
constexpr uint32_t kVersion = 1;

std::string ShapeString(int64_t rows, int64_t cols) {
  return "[" + std::to_string(rows) + " x " + std::to_string(cols) + "]";
}

}  // namespace

Status SaveTensorsToStream(
    const std::vector<std::pair<std::string, Tensor>>& named_tensors,
    std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(named_tensors.size()));
  for (const auto& [name, tensor] : named_tensors) {
    if (!tensor.defined()) {
      return Status::InvalidArgument("undefined tensor: " + name);
    }
    WritePod(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    WritePod(out, static_cast<int64_t>(tensor.rows()));
    WritePod(out, static_cast<int64_t>(tensor.cols()));
    out.write(reinterpret_cast<const char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.size() * sizeof(float)));
  }
  if (!out) return Status::IoError("tensor table write failed");
  return Status::Ok();
}

Result<std::vector<std::pair<std::string, Tensor>>> LoadTensorsFromStream(
    std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a HyGNN tensor table");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::IoError("unsupported tensor table version " +
                           std::to_string(version) + " (reader supports " +
                           std::to_string(kVersion) + ")");
  }
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Status::IoError("truncated header");
  std::vector<std::pair<std::string, Tensor>> result;
  result.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadPod(in, &name_len) || name_len > (1u << 20)) {
      return Status::IoError("corrupt tensor name length");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    int64_t rows = 0, cols = 0;
    if (!ReadPod(in, &rows) || !ReadPod(in, &cols) || rows <= 0 ||
        cols <= 0) {
      return Status::IoError("corrupt tensor shape for " + name);
    }
    std::vector<float> data(static_cast<size_t>(rows * cols));
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!in) return Status::IoError("truncated tensor data for " + name);
    result.emplace_back(std::move(name),
                        Tensor::FromVector(std::move(data), rows, cols));
  }
  return result;
}

Status RestoreParameters(
    const std::vector<std::pair<std::string, Tensor>>& loaded,
    std::vector<Tensor>* parameters) {
  if (parameters == nullptr) {
    return Status::InvalidArgument("null parameters");
  }
  if (loaded.size() != parameters->size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " +
        std::to_string(loaded.size()) + ", model has " +
        std::to_string(parameters->size()));
  }
  for (size_t i = 0; i < loaded.size(); ++i) {
    const Tensor& src = loaded[i].second;
    Tensor& dst = (*parameters)[i];
    if (src.rows() != dst.rows() || src.cols() != dst.cols()) {
      return Status::InvalidArgument(
          "shape mismatch at " + loaded[i].first + ": file has " +
          ShapeString(src.rows(), src.cols()) + ", model expects " +
          ShapeString(dst.rows(), dst.cols()));
    }
    std::memcpy(dst.data(), src.data(),
                static_cast<size_t>(src.size()) * sizeof(float));
  }
  return Status::Ok();
}

}  // namespace hygnn::tensor
