#include "core/csr.h"

#include "core/logging.h"

namespace hygnn::core {

void Csr::GroupBy(std::span<const int32_t> keys, int64_t num_keys) {
  // After the sum, offsets[k] counts the items of keys 0..k: key k's
  // end. The fill walks the positions backwards and moves each key's
  // cursor down from its end, so each key's positions come out
  // ascending and every cursor stops at its key's first slot.
  offsets.assign(static_cast<size_t>(num_keys) + 1, 0);
  for (const int32_t key : keys) {
    HYGNN_DCHECK(key >= 0 && key < num_keys);
    ++offsets[static_cast<size_t>(key)];
  }
  int64_t total = 0;
  for (int64_t& offset : offsets) {
    total += offset;
    offset = total;
  }
  indices.resize(keys.size());
  for (size_t i = keys.size(); i-- > 0;) {
    indices[static_cast<size_t>(--offsets[static_cast<size_t>(keys[i])])] =
        static_cast<int32_t>(i);
  }
}

}  // namespace hygnn::core
