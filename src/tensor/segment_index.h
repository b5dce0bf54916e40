#ifndef HYGNN_TENSOR_SEGMENT_INDEX_H_
#define HYGNN_TENSOR_SEGMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/csr.h"

namespace hygnn::tensor {

/// The index a segment op reads (tensor/ops.h): n ids, each in
/// [0, num_segments), and their grouping by id. For SegmentSoftmax,
/// SegmentSum and WeightedSegmentSum an id names its row's segment; for
/// IndexSelectRows and LeakyPairScore it names the row a gather reads,
/// and the grouping runs the gather's backward.
///
/// Immutable once made, so one object can stand for an index that never
/// changes — the encoder's incidence pairs (model::HypergraphContext) —
/// on every op, step and thread that reads it: the ids are validated
/// once, when the object is made, and grouped once, on the first call
/// to groups(). Ops record it by shared pointer and copy nothing.
class SegmentIndex {
 public:
  /// CHECK-fails unless every id is in [0, num_segments).
  SegmentIndex(std::vector<int32_t> ids, int64_t num_segments);

  SegmentIndex(const SegmentIndex&) = delete;
  SegmentIndex& operator=(const SegmentIndex&) = delete;

  const std::vector<int32_t>& ids() const { return ids_; }
  int64_t size() const { return static_cast<int64_t>(ids_.size()); }
  int64_t num_segments() const { return num_segments_; }

  /// The positions [0, size()) grouped by id, ascending within each id
  /// (core::Csr::GroupBy). Built by the first call, on whichever thread
  /// makes it (std::call_once), and shared by every later one, so an
  /// index that only gathers forward, as in inference, is never grouped.
  const core::Csr& groups() const;

 private:
  const std::vector<int32_t> ids_;
  const int64_t num_segments_;
  mutable std::once_flag grouped_;
  mutable core::Csr groups_;
};

/// How ops take an index and how their tape records hold it.
using SegmentIndexPtr = std::shared_ptr<const SegmentIndex>;

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_SEGMENT_INDEX_H_
