#include "chem/molgraph.h"

#include <cctype>
#include <unordered_map>

#include "chem/smiles.h"
#include "core/logging.h"

namespace hygnn::chem {

using core::Result;
using core::Status;

namespace {

/// Parses the contents of a bracket atom expression (without the
/// enclosing []) into an Atom. Grammar (subset of Daylight):
///   [isotope] symbol [chirality] [Hcount] [charge]
Result<Atom> ParseBracketAtom(const std::string& body) {
  Atom atom;
  size_t i = 0;
  // isotope digits (ignored)
  while (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
    ++i;
  }
  if (i >= body.size()) {
    return Status::InvalidArgument("bracket atom missing element: [" +
                                   body + "]");
  }
  // element symbol: uppercase + optional lowercase, or aromatic
  // lowercase (c, n, o, s, p, se, as)
  if (std::isupper(static_cast<unsigned char>(body[i]))) {
    atom.element = body[i++];
    if (i < body.size() && std::islower(static_cast<unsigned char>(body[i])) &&
        body[i] != 'h') {
      // Two-letter element, but do not swallow a following H-count 'h'.
      // (Real SMILES H-count is uppercase 'H'; this guard is for safety.)
      atom.element += body[i++];
    }
  } else if (std::islower(static_cast<unsigned char>(body[i]))) {
    atom.aromatic = true;
    atom.element = static_cast<char>(
        std::toupper(static_cast<unsigned char>(body[i])));
    ++i;
    if (i < body.size() && body[i] == 'e') {  // se
      atom.element += 'e';
      ++i;
    }
  } else {
    return Status::InvalidArgument("bad bracket atom: [" + body + "]");
  }
  // chirality (@ or @@) — parsed and ignored
  while (i < body.size() && body[i] == '@') ++i;
  // explicit hydrogen count
  if (i < body.size() && body[i] == 'H') {
    ++i;
    atom.explicit_hydrogens = 1;
    if (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
      atom.explicit_hydrogens = body[i] - '0';
      ++i;
    }
  }
  // charge: +, -, ++, --, +2, -3 ...
  if (i < body.size() && (body[i] == '+' || body[i] == '-')) {
    const int32_t sign = body[i] == '+' ? 1 : -1;
    int32_t magnitude = 0;
    while (i < body.size() && (body[i] == '+' || body[i] == '-')) {
      if ((body[i] == '+' ? 1 : -1) != sign) {
        return Status::InvalidArgument("mixed charge signs: [" + body + "]");
      }
      ++magnitude;
      ++i;
    }
    if (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
      magnitude = 0;
      while (i < body.size() &&
             std::isdigit(static_cast<unsigned char>(body[i]))) {
        magnitude = magnitude * 10 + (body[i] - '0');
        ++i;
      }
    }
    atom.charge = sign * magnitude;
  }
  if (i != body.size()) {
    return Status::InvalidArgument("trailing garbage in bracket atom: [" +
                                   body + "]");
  }
  return atom;
}

int32_t BondOrderOf(const std::string& symbol) {
  if (symbol == "=") return 2;
  if (symbol == "#") return 3;
  return 1;  // '-', ':', '/', '\\' treated as single for graph purposes
}

}  // namespace

Result<MolecularGraph> MolecularGraph::FromSmiles(const std::string& smiles) {
  Status valid = ValidateSmiles(smiles);
  if (!valid.ok()) return valid;
  auto tokens = TokenizeSmiles(smiles).value();

  MolecularGraph graph;
  std::vector<int32_t> branch_stack;
  int32_t previous_atom = -1;
  int32_t pending_order = 0;  // 0 = default (single or aromatic)
  // ring label -> (atom index, bond order at open)
  std::unordered_map<std::string, std::pair<int32_t, int32_t>> open_rings;

  auto add_bond = [&graph](int32_t a, int32_t b, int32_t order,
                           bool aromatic_hint) {
    Bond bond;
    bond.a = a;
    bond.b = b;
    bond.order = order == 0 ? 1 : order;
    bond.aromatic = aromatic_hint && order == 0 &&
                    graph.atoms_[static_cast<size_t>(a)].aromatic &&
                    graph.atoms_[static_cast<size_t>(b)].aromatic;
    graph.bonds_.push_back(bond);
  };

  for (const auto& token : tokens) {
    switch (token.type) {
      case SmilesTokenType::kAtom:
      case SmilesTokenType::kBracketAtom: {
        Atom atom;
        if (token.type == SmilesTokenType::kAtom) {
          if (std::islower(static_cast<unsigned char>(token.text[0]))) {
            atom.aromatic = true;
            atom.element = static_cast<char>(
                std::toupper(static_cast<unsigned char>(token.text[0])));
            if (token.text.size() > 1) atom.element += token.text[1];
          } else {
            atom.element = token.text;
          }
        } else {
          auto atom_or = ParseBracketAtom(
              token.text.substr(1, token.text.size() - 2));
          if (!atom_or.ok()) return atom_or.status();
          atom = std::move(atom_or).value();
        }
        const int32_t index = graph.num_atoms();
        graph.atoms_.push_back(std::move(atom));
        if (previous_atom >= 0) {
          add_bond(previous_atom, index, pending_order, true);
        }
        previous_atom = index;
        pending_order = 0;
        break;
      }
      case SmilesTokenType::kBond:
        pending_order = BondOrderOf(token.text);
        break;
      case SmilesTokenType::kRingBond: {
        HYGNN_CHECK_GE(previous_atom, 0);
        auto it = open_rings.find(token.text);
        if (it == open_rings.end()) {
          open_rings.emplace(token.text,
                             std::make_pair(previous_atom, pending_order));
        } else {
          const auto [other_atom, open_order] = it->second;
          open_rings.erase(it);
          const int32_t order =
              pending_order != 0 ? pending_order : open_order;
          add_bond(other_atom, previous_atom, order, true);
        }
        pending_order = 0;
        break;
      }
      case SmilesTokenType::kBranchOpen:
        branch_stack.push_back(previous_atom);
        break;
      case SmilesTokenType::kBranchClose:
        previous_atom = branch_stack.back();
        branch_stack.pop_back();
        break;
      case SmilesTokenType::kDot:
        previous_atom = -1;
        pending_order = 0;
        break;
    }
  }
  graph.BuildIncidence();
  return graph;
}

void MolecularGraph::BuildIncidence() {
  // Bond b's end atoms sit at positions 2b and 2b + 1, so grouping them
  // by atom and halving each position lists each atom's bonds
  // ascending.
  std::vector<int32_t> ends;
  ends.reserve(2 * bonds_.size());
  for (const auto& bond : bonds_) ends.insert(ends.end(), {bond.a, bond.b});
  incidence_.GroupBy(ends, num_atoms());
  for (int32_t& position : incidence_.indices) position /= 2;
}

std::span<const int32_t> MolecularGraph::IncidentBonds(int32_t atom) const {
  HYGNN_CHECK(atom >= 0 && atom < num_atoms());
  return incidence_.Range(atom);
}

int64_t MolecularGraph::Degree(int32_t atom) const {
  HYGNN_CHECK(atom >= 0 && atom < num_atoms());
  return incidence_.Count(atom);
}

int32_t MolecularGraph::OtherEnd(int32_t bond_index, int32_t atom) const {
  const auto& bond = bonds_[static_cast<size_t>(bond_index)];
  return bond.a == atom ? bond.b : bond.a;
}

}  // namespace hygnn::chem
