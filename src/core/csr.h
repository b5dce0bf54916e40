#ifndef HYGNN_CORE_CSR_H_
#define HYGNN_CORE_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hygnn::core {

/// Items grouped by key, stored as offsets plus indices (compressed
/// sparse rows): key k's items are indices[offsets[k] .. offsets[k + 1]).
/// The one grouping type of the library: CSR matrices, graph adjacency,
/// hypergraph and molecule incidence, and the segment and pair kernels
/// all keep their groupings in it.
struct Csr {
  std::vector<int64_t> offsets{0};  // num_keys() + 1, ascending
  std::vector<int32_t> indices;

  int64_t num_keys() const { return static_cast<int64_t>(offsets.size()) - 1; }

  /// Number of items of key `key`.
  int64_t Count(int64_t key) const { return offsets[key + 1] - offsets[key]; }

  /// The items of key `key`.
  std::span<const int32_t> Range(int64_t key) const {
    return {indices.data() + offsets[key], static_cast<size_t>(Count(key))};
  }

  /// Rebuilds this grouping in place, reusing its storage: the
  /// positions [0, keys.size()) grouped by keys[i], each in
  /// [0, num_keys), ascending within each key (a stable counting sort).
  void GroupBy(std::span<const int32_t> keys, int64_t num_keys);
};

}  // namespace hygnn::core

#endif  // HYGNN_CORE_CSR_H_
