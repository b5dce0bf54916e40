#include "chem/vocab.h"

#include "core/logging.h"

namespace hygnn::chem {

int32_t SubstructureVocabulary::AddOrGet(const std::string& substructure) {
  auto it = index_.find(substructure);
  if (it != index_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(texts_.size());
  index_.emplace(substructure, id);
  texts_.push_back(substructure);
  counts_.push_back(0);
  return id;
}

int32_t SubstructureVocabulary::Find(const std::string& substructure) const {
  auto it = index_.find(substructure);
  return it == index_.end() ? -1 : it->second;
}

void SubstructureVocabulary::CountOccurrence(int32_t id, int64_t delta) {
  HYGNN_CHECK(id >= 0 && id < size());
  counts_[id] += delta;
}

const std::string& SubstructureVocabulary::Text(int32_t id) const {
  HYGNN_CHECK(id >= 0 && id < size());
  return texts_[id];
}

int64_t SubstructureVocabulary::Frequency(int32_t id) const {
  HYGNN_CHECK(id >= 0 && id < size());
  return counts_[id];
}

}  // namespace hygnn::chem
