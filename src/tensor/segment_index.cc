#include "tensor/segment_index.h"

#include <utility>

#include "core/logging.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor {

SegmentIndex::SegmentIndex(std::vector<int32_t> ids, int64_t num_segments)
    : ids_(std::move(ids)), num_segments_(num_segments) {
  HYGNN_CHECK_GE(num_segments, 0);
  HYGNN_CHECK(kernels::AllInRange(ids_.data(), size(), 0,
                                  static_cast<int32_t>(num_segments)))
      << "segment id out of range [0, " << num_segments << ")";
}

const core::Csr& SegmentIndex::groups() const {
  std::call_once(grouped_, [this] { groups_.GroupBy(ids_, num_segments_); });
  return groups_;
}

}  // namespace hygnn::tensor
