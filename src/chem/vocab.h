#ifndef HYGNN_CHEM_VOCAB_H_
#define HYGNN_CHEM_VOCAB_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace hygnn::chem {

/// Bidirectional mapping between substructure strings and dense integer
/// ids, with occurrence counts. Hypergraph nodes are vocabulary entries.
class SubstructureVocabulary {
 public:
  /// Returns the id for `substructure`, inserting it if new.
  int32_t AddOrGet(const std::string& substructure);

  /// Returns the id, or -1 when absent.
  int32_t Find(const std::string& substructure) const;

  /// Increments the occurrence count of an existing entry.
  void CountOccurrence(int32_t id, int64_t delta = 1);

  const std::string& Text(int32_t id) const;
  int64_t Frequency(int32_t id) const;

  int32_t size() const { return static_cast<int32_t>(texts_.size()); }

 private:
  std::unordered_map<std::string, int32_t> index_;
  std::vector<std::string> texts_;
  std::vector<int64_t> counts_;
};

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_VOCAB_H_
