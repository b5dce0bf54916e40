#include "chem/smiles.h"

#include <cctype>
#include <set>
#include <unordered_map>

namespace hygnn::chem {

namespace {

using core::Result;
using core::Status;

/// Two-character organic/common element symbols recognized outside
/// brackets.
bool IsTwoCharElement(char a, char b) {
  return (a == 'C' && b == 'l') || (a == 'B' && b == 'r');
}

/// Single-character aliphatic organic-subset atoms.
bool IsAliphaticAtom(char c) {
  switch (c) {
    case 'B':
    case 'C':
    case 'N':
    case 'O':
    case 'P':
    case 'S':
    case 'F':
    case 'I':
      return true;
    default:
      return false;
  }
}

/// Single-character aromatic organic-subset atoms.
bool IsAromaticAtom(char c) {
  switch (c) {
    case 'b':
    case 'c':
    case 'n':
    case 'o':
    case 'p':
    case 's':
      return true;
    default:
      return false;
  }
}

bool IsBondChar(char c) {
  switch (c) {
    case '-':
    case '=':
    case '#':
    case ':':
    case '/':
    case '\\':
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<std::vector<SmilesToken>> TokenizeSmiles(const std::string& smiles) {
  std::vector<SmilesToken> tokens;
  const size_t n = smiles.size();
  if (n == 0) {
    return Status::InvalidArgument("empty SMILES string");
  }
  size_t i = 0;
  while (i < n) {
    const char c = smiles[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("whitespace inside SMILES at position " +
                                     std::to_string(i));
    }
    if (c == '[') {
      size_t close = smiles.find(']', i);
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated bracket atom at " +
                                       std::to_string(i));
      }
      if (close == i + 1) {
        return Status::InvalidArgument("empty bracket atom at " +
                                       std::to_string(i));
      }
      tokens.push_back({SmilesTokenType::kBracketAtom,
                        smiles.substr(i, close - i + 1)});
      i = close + 1;
      continue;
    }
    if (c == ']') {
      return Status::InvalidArgument("unmatched ']' at " + std::to_string(i));
    }
    if (i + 1 < n && IsTwoCharElement(c, smiles[i + 1])) {
      tokens.push_back({SmilesTokenType::kAtom, smiles.substr(i, 2)});
      i += 2;
      continue;
    }
    if (IsAliphaticAtom(c) || IsAromaticAtom(c)) {
      tokens.push_back({SmilesTokenType::kAtom, std::string(1, c)});
      ++i;
      continue;
    }
    if (IsBondChar(c)) {
      tokens.push_back({SmilesTokenType::kBond, std::string(1, c)});
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      tokens.push_back({SmilesTokenType::kRingBond, std::string(1, c)});
      ++i;
      continue;
    }
    if (c == '%') {
      if (i + 2 >= n || !std::isdigit(static_cast<unsigned char>(smiles[i + 1])) ||
          !std::isdigit(static_cast<unsigned char>(smiles[i + 2]))) {
        return Status::InvalidArgument("malformed %nn ring closure at " +
                                       std::to_string(i));
      }
      tokens.push_back({SmilesTokenType::kRingBond, smiles.substr(i, 3)});
      i += 3;
      continue;
    }
    if (c == '(') {
      tokens.push_back({SmilesTokenType::kBranchOpen, "("});
      ++i;
      continue;
    }
    if (c == ')') {
      tokens.push_back({SmilesTokenType::kBranchClose, ")"});
      ++i;
      continue;
    }
    if (c == '.') {
      tokens.push_back({SmilesTokenType::kDot, "."});
      ++i;
      continue;
    }
    return Status::InvalidArgument(std::string("invalid SMILES character '") +
                                   c + "' at " + std::to_string(i));
  }
  return tokens;
}

Status ValidateSmiles(const std::string& smiles) {
  auto tokens_or = TokenizeSmiles(smiles);
  if (!tokens_or.ok()) return tokens_or.status();
  const auto& tokens = tokens_or.value();

  int paren_depth = 0;
  // Ring closures must appear an even number of times per label within
  // each connected component (labels can be reused after closing).
  std::unordered_map<std::string, int> open_rings;
  bool prev_was_bond = false;
  bool seen_atom = false;

  for (size_t i = 0; i < tokens.size(); ++i) {
    const auto& t = tokens[i];
    switch (t.type) {
      case SmilesTokenType::kBranchOpen:
        if (!seen_atom) {
          return Status::InvalidArgument("branch before any atom");
        }
        ++paren_depth;
        if (i + 1 < tokens.size() &&
            tokens[i + 1].type == SmilesTokenType::kBranchClose) {
          return Status::InvalidArgument("empty branch '()'");
        }
        break;
      case SmilesTokenType::kBranchClose:
        --paren_depth;
        if (paren_depth < 0) {
          return Status::InvalidArgument("unmatched ')'");
        }
        if (prev_was_bond) {
          return Status::InvalidArgument("bond before ')'");
        }
        break;
      case SmilesTokenType::kBond:
        if (!seen_atom) {
          return Status::InvalidArgument("SMILES begins with a bond");
        }
        if (prev_was_bond) {
          return Status::InvalidArgument("two consecutive bond symbols");
        }
        break;
      case SmilesTokenType::kRingBond:
        if (!seen_atom) {
          return Status::InvalidArgument("ring closure before any atom");
        }
        open_rings[t.text] ^= 1;
        break;
      case SmilesTokenType::kAtom:
      case SmilesTokenType::kBracketAtom:
        seen_atom = true;
        break;
      case SmilesTokenType::kDot:
        if (prev_was_bond || paren_depth != 0) {
          return Status::InvalidArgument("misplaced '.'");
        }
        break;
    }
    prev_was_bond = t.type == SmilesTokenType::kBond;
  }
  if (paren_depth != 0) return Status::InvalidArgument("unbalanced '('");
  if (prev_was_bond) return Status::InvalidArgument("trailing bond symbol");
  if (!seen_atom) return Status::InvalidArgument("no atoms in SMILES");
  for (const auto& [label, parity] : open_rings) {
    if (parity != 0) {
      return Status::InvalidArgument("unclosed ring bond '" + label + "'");
    }
  }
  return Status::Ok();
}

std::vector<std::string> TokenTexts(const std::vector<SmilesToken>& tokens) {
  std::vector<std::string> texts;
  texts.reserve(tokens.size());
  for (const auto& t : tokens) texts.push_back(t.text);
  return texts;
}

}  // namespace hygnn::chem
