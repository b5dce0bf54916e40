#ifndef HYGNN_CHEM_STROBEMER_H_
#define HYGNN_CHEM_STROBEMER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace hygnn::chem {

/// Parameters for randstrobe extraction (Sahlin 2021, cited by the
/// paper in §III-B as an alternative to k-mers). A randstrobe of order
/// 2 couples a fixed k-mer ("strobe 1") at position i with a second
/// k-mer chosen inside a downstream window by hash minimization — a
/// gap-tolerant substructure that still matches across insertions.
struct StrobemerConfig {
  int64_t k = 4;       // strobe length
  int64_t w_min = 2;   // window start offset (from end of strobe 1)
  int64_t w_max = 8;   // window end offset
  uint64_t hash_seed = 0x9e3779b97f4a7c15ULL;
};

/// Extracts order-2 randstrobes from a SMILES string: one strobemer per
/// anchor position while a full window fits, formatted as
/// "<strobe1>~<strobe2>". Strings shorter than one full strobemer span
/// yield the whole string (so no drug decomposes to nothing).
core::Result<std::vector<std::string>> ExtractRandstrobes(
    const std::string& smiles, const StrobemerConfig& config);

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_STROBEMER_H_
