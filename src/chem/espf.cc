#include "chem/espf.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "chem/smiles.h"
#include "core/logging.h"

namespace hygnn::chem {

namespace {

using core::Result;
using core::Status;

/// Upper bound on learned merge operations (safety valve; the paper's
/// run produced 741 unique substructures).
constexpr int64_t kMaxMerges = 100000;

using PairKey = std::pair<std::string, std::string>;

struct PairKeyHash {
  size_t operator()(const PairKey& p) const {
    std::hash<std::string> h;
    return h(p.first) * 1315423911u ^ h(p.second);
  }
};

/// Counts adjacent pairs across the whole corpus.
std::unordered_map<PairKey, int64_t, PairKeyHash> CountPairs(
    const std::vector<std::vector<std::string>>& corpus) {
  std::unordered_map<PairKey, int64_t, PairKeyHash> counts;
  for (const auto& seq : corpus) {
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      counts[{seq[i], seq[i + 1]}]++;
    }
  }
  return counts;
}

/// Merges every occurrence of (left, right) in `seq` in-place semantics
/// (returns the merged sequence).
std::vector<std::string> MergePairInSequence(
    const std::vector<std::string>& seq, const std::string& left,
    const std::string& right) {
  std::vector<std::string> out;
  out.reserve(seq.size());
  size_t i = 0;
  while (i < seq.size()) {
    if (i + 1 < seq.size() && seq[i] == left && seq[i + 1] == right) {
      out.push_back(left + right);
      i += 2;
    } else {
      out.push_back(seq[i]);
      ++i;
    }
  }
  return out;
}

}  // namespace

Result<Espf> Espf::Train(const std::vector<std::string>& corpus,
                         const EspfConfig& config) {
  if (corpus.empty()) {
    return Status::InvalidArgument("ESPF training corpus is empty");
  }
  if (config.frequency_threshold < 1) {
    return Status::InvalidArgument("frequency_threshold must be >= 1");
  }
  std::vector<std::vector<std::string>> sequences;
  sequences.reserve(corpus.size());
  for (const auto& smiles : corpus) {
    auto tokens_or = TokenizeSmiles(smiles);
    if (!tokens_or.ok()) return tokens_or.status();
    sequences.push_back(TokenTexts(tokens_or.value()));
  }

  Espf model;
  for (int64_t iter = 0; iter < kMaxMerges; ++iter) {
    auto counts = CountPairs(sequences);
    PairKey best;
    int64_t best_count = 0;
    for (const auto& [key, count] : counts) {
      if (count > best_count ||
          (count == best_count && best_count > 0 && key < best)) {
        best = key;
        best_count = count;
      }
    }
    if (best_count < config.frequency_threshold) break;
    model.merges_.push_back({best.first, best.second});
    for (auto& seq : sequences) {
      seq = MergePairInSequence(seq, best.first, best.second);
    }
  }

  // Vocabulary: unique units of the fully merged training corpus, most
  // to least frequent (the paper's list F).
  std::unordered_map<std::string, int64_t> unit_counts;
  for (const auto& seq : sequences) {
    for (const auto& unit : seq) unit_counts[unit]++;
  }
  std::vector<std::pair<std::string, int64_t>> sorted(unit_counts.begin(),
                                                      unit_counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  model.vocabulary_.reserve(sorted.size());
  for (const auto& [unit, count] : sorted) {
    model.vocabulary_.push_back(unit);
  }
  return model;
}

std::vector<std::string> Espf::ApplyMerges(
    std::vector<std::string> units) const {
  // Replay merges in learned order. Each pass is linear; total cost is
  // merges * length, fine for SMILES-sized strings.
  for (const auto& merge : merges_) {
    if (units.size() < 2) break;
    units = MergePairInSequence(units, merge.left, merge.right);
  }
  return units;
}

Result<std::vector<std::string>> Espf::Segment(
    const std::string& smiles) const {
  auto tokens_or = TokenizeSmiles(smiles);
  if (!tokens_or.ok()) return tokens_or.status();
  return ApplyMerges(TokenTexts(tokens_or.value()));
}

}  // namespace hygnn::chem
