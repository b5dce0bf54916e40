#include "chem/strobemer.h"

namespace hygnn::chem {

using core::Result;
using core::Status;

namespace {

/// FNV-1a over a character window, mixed with a seed and the previous
/// strobe's hash (the "rand" conditioning of randstrobes).
uint64_t WindowHash(const std::string& s, int64_t begin, int64_t k,
                    uint64_t condition) {
  uint64_t h = 1469598103934665603ULL ^ condition;
  for (int64_t i = begin; i < begin + k; ++i) {
    h ^= static_cast<unsigned char>(s[static_cast<size_t>(i)]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Result<std::vector<std::string>> ExtractRandstrobes(
    const std::string& smiles, const StrobemerConfig& config) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.w_min < 1 || config.w_max < config.w_min) {
    return Status::InvalidArgument("invalid window [w_min, w_max]");
  }
  if (smiles.empty()) return Status::InvalidArgument("empty SMILES string");

  const int64_t l = static_cast<int64_t>(smiles.size());
  // Anchor i needs strobe 1 at [i, i+k) and strobe 2 starting inside
  // [i+k+w_min-1, i+k+w_max-1] with k chars available.
  const int64_t last_anchor = l - (2 * config.k + config.w_min - 1);
  std::vector<std::string> strobemers;
  if (last_anchor < 0) {
    strobemers.push_back(smiles);
    return strobemers;
  }
  for (int64_t i = 0; i <= last_anchor; ++i) {
    const uint64_t strobe1_hash =
        WindowHash(smiles, i, config.k, config.hash_seed);
    const int64_t window_begin = i + config.k + config.w_min - 1;
    const int64_t window_end =
        std::min(i + config.k + config.w_max - 1, l - config.k);
    int64_t best_pos = window_begin;
    uint64_t best_hash = WindowHash(smiles, window_begin, config.k,
                                    strobe1_hash);
    for (int64_t j = window_begin + 1; j <= window_end; ++j) {
      const uint64_t h = WindowHash(smiles, j, config.k, strobe1_hash);
      if (h < best_hash) {
        best_hash = h;
        best_pos = j;
      }
    }
    std::string strobemer =
        smiles.substr(static_cast<size_t>(i), static_cast<size_t>(config.k));
    strobemer += '~';
    strobemer += smiles.substr(static_cast<size_t>(best_pos),
                               static_cast<size_t>(config.k));
    strobemers.push_back(std::move(strobemer));
  }
  return strobemers;
}

}  // namespace hygnn::chem
