#ifndef HYGNN_CHEM_SMILES_H_
#define HYGNN_CHEM_SMILES_H_

#include <string>
#include <vector>

#include "core/status.h"

namespace hygnn::chem {

/// Kind of a lexical SMILES token.
enum class SmilesTokenType {
  kAtom,         // organic-subset atom: C, N, O, Cl, c, n, ...
  kBracketAtom,  // bracketed atom expression: [NH4+], [C@@H], ...
  kBond,         // - = # : / '\'
  kRingBond,     // ring-closure digit or %nn
  kBranchOpen,   // (
  kBranchClose,  // )
  kDot,          // . (disconnected components)
};

/// One lexical token of a SMILES string.
struct SmilesToken {
  SmilesTokenType type;
  std::string text;

  bool operator==(const SmilesToken& other) const {
    return type == other.type && text == other.text;
  }
};

/// Splits a SMILES string into lexical tokens. Fails with
/// InvalidArgument on characters outside the SMILES alphabet, unknown
/// element symbols, or an unterminated bracket atom.
core::Result<std::vector<SmilesToken>> TokenizeSmiles(
    const std::string& smiles);

/// Validates SMILES syntax beyond tokenization: balanced parentheses,
/// paired ring-closure digits, no leading/trailing dangling bond, no
/// empty branches.
core::Status ValidateSmiles(const std::string& smiles);

/// Convenience: token texts in order (for substructure mining).
std::vector<std::string> TokenTexts(const std::vector<SmilesToken>& tokens);

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_SMILES_H_
