#ifndef HYGNN_CHEM_ESPF_H_
#define HYGNN_CHEM_ESPF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace hygnn::chem {

/// Configuration for ESPF substructure mining.
struct EspfConfig {
  /// Minimum corpus frequency for a merged substructure to enter the
  /// vocabulary. The paper uses 5 on the 824-drug DrugBank corpus.
  int64_t frequency_threshold = 5;
};

/// Explainable Substructure Partition Fingerprint (Huang et al. 2019).
///
/// ESPF is byte-pair encoding over SMILES token streams: it repeatedly
/// merges the most frequent adjacent token pair whose count stays at or
/// above `frequency_threshold`, producing a vocabulary of "moderate-sized
/// frequent substructures". Segmentation replays the learned merges so
/// any drug — including one unseen during training — decomposes into
/// frequent substructures ordered as in the original string.
class Espf {
 public:
  /// Learns merge operations from a corpus of SMILES strings. Invalid
  /// SMILES yield InvalidArgument.
  static core::Result<Espf> Train(const std::vector<std::string>& corpus,
                                  const EspfConfig& config);

  /// Decomposes a SMILES string into frequent substructures by replaying
  /// the learned merges (BPE application).
  core::Result<std::vector<std::string>> Segment(
      const std::string& smiles) const;

  /// Number of learned merge operations.
  int64_t num_merges() const { return static_cast<int64_t>(merges_.size()); }

  /// Distinct substructures observed in the segmented training corpus,
  /// ordered from most to least frequent (the paper's vocabulary list F).
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }

 private:
  struct Merge {
    std::string left;
    std::string right;
  };

  /// Applies learned merges (in learned order) to a token sequence.
  std::vector<std::string> ApplyMerges(std::vector<std::string> units) const;

  std::vector<Merge> merges_;
  std::vector<std::string> vocabulary_;
};

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_ESPF_H_
