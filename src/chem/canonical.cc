#include "chem/canonical.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <unordered_map>

#include "chem/smiles.h"
#include "core/logging.h"

namespace hygnn::chem {

using core::Result;
using core::Status;

namespace {

uint64_t MixHash(uint64_t h, uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Converts arbitrary invariant values into dense ranks [0, k).
std::vector<int32_t> Densify(const std::vector<uint64_t>& invariants) {
  std::vector<uint64_t> sorted = invariants;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::unordered_map<uint64_t, int32_t> rank_of;
  for (size_t r = 0; r < sorted.size(); ++r) {
    rank_of[sorted[r]] = static_cast<int32_t>(r);
  }
  std::vector<int32_t> ranks(invariants.size());
  for (size_t i = 0; i < invariants.size(); ++i) {
    ranks[i] = rank_of[invariants[i]];
  }
  return ranks;
}

int32_t DistinctCount(const std::vector<int32_t>& ranks) {
  std::vector<int32_t> sorted = ranks;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int32_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// One Morgan refinement sweep: rank + sorted (bond, neighbor rank).
std::vector<int32_t> Refine(const MolecularGraph& molecule,
                            const std::vector<int32_t>& ranks) {
  std::vector<uint64_t> invariants(ranks.size());
  for (int32_t atom = 0; atom < molecule.num_atoms(); ++atom) {
    std::vector<std::pair<uint64_t, uint64_t>> neighborhood;
    for (int32_t bond_index : molecule.IncidentBonds(atom)) {
      const Bond& bond = molecule.bond(bond_index);
      const uint64_t bond_key =
          bond.aromatic ? 4 : static_cast<uint64_t>(bond.order);
      neighborhood.emplace_back(
          bond_key, static_cast<uint64_t>(
                        ranks[static_cast<size_t>(
                            molecule.OtherEnd(bond_index, atom))]));
    }
    std::sort(neighborhood.begin(), neighborhood.end());
    uint64_t h = MixHash(0x6a09e667f3bcc909ULL,
                         static_cast<uint64_t>(ranks[atom]));
    for (const auto& [bond_key, neighbor_rank] : neighborhood) {
      h = MixHash(h, bond_key);
      h = MixHash(h, neighbor_rank);
    }
    invariants[static_cast<size_t>(atom)] = h;
  }
  return Densify(invariants);
}

std::vector<int32_t> RefineToFixpoint(const MolecularGraph& molecule,
                                      std::vector<int32_t> ranks) {
  int32_t distinct = DistinctCount(ranks);
  for (int32_t iteration = 0; iteration < molecule.num_atoms();
       ++iteration) {
    auto next = Refine(molecule, ranks);
    const int32_t next_distinct = DistinctCount(next);
    if (next_distinct == distinct) break;
    ranks = std::move(next);
    distinct = next_distinct;
  }
  return ranks;
}

bool IsOrganicSubset(const std::string& element) {
  return element == "B" || element == "C" || element == "N" ||
         element == "O" || element == "P" || element == "S" ||
         element == "F" || element == "Cl" || element == "Br" ||
         element == "I";
}

/// Emits an atom token, bracketed when charge/H-count/exotic element
/// requires it.
std::string AtomToken(const Atom& atom) {
  std::string symbol = atom.element;
  if (atom.aromatic) {
    symbol[0] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(symbol[0])));
  }
  const bool needs_bracket = atom.charge != 0 ||
                             atom.explicit_hydrogens >= 0 ||
                             !IsOrganicSubset(atom.element);
  if (!needs_bracket) return symbol;
  std::string token = "[" + symbol;
  if (atom.explicit_hydrogens > 0) {
    token += 'H';
    if (atom.explicit_hydrogens > 1) {
      token += std::to_string(atom.explicit_hydrogens);
    }
  }
  if (atom.charge != 0) {
    token += atom.charge > 0 ? '+' : '-';
    const int32_t magnitude = std::abs(atom.charge);
    if (magnitude > 1) token += std::to_string(magnitude);
  }
  token += ']';
  return token;
}

std::string BondSymbol(const Bond& bond) {
  if (bond.order == 2) return "=";
  if (bond.order == 3) return "#";
  return "";  // single and aromatic bonds are implicit
}

std::string RingDigitToken(int32_t digit) {
  if (digit < 10) return std::to_string(digit);
  std::string token = "%";
  token += std::to_string(digit);
  return token;
}

/// Canonical DFS SMILES writer for one connected component.
class ComponentWriter {
 public:
  ComponentWriter(const MolecularGraph& molecule,
                  const std::vector<int32_t>& ranks)
      : molecule_(molecule),
        ranks_(ranks),
        visited_(static_cast<size_t>(molecule.num_atoms()), false),
        bond_used_(static_cast<size_t>(molecule.num_bonds()), false) {}

  /// InvalidArgument when the component needs more ring-closure labels
  /// than SMILES can spell: the tokenizer reads `%` plus exactly two
  /// digits, so a label of 100 would read back as `%10` then `0`.
  Result<std::string> Write(int32_t root) {
    next_ring_digit_ = 1;
    std::string out = WriteAtom(root, /*parent_bond=*/-1);
    const int32_t labels = next_ring_digit_ - 1;
    if (labels > kMaxRingLabel) {
      return Status::InvalidArgument(
          "component needs " + std::to_string(labels) +
          " ring-closure labels; SMILES spells at most " +
          std::to_string(kMaxRingLabel));
    }
    return out;
  }

  const std::vector<bool>& visited() const { return visited_; }

 private:
  /// Neighbors of `atom` by ascending canonical rank (deterministic).
  std::vector<int32_t> OrderedBonds(int32_t atom) const {
    std::vector<int32_t> bonds(molecule_.IncidentBonds(atom).begin(),
                               molecule_.IncidentBonds(atom).end());
    std::sort(bonds.begin(), bonds.end(),
              [this, atom](int32_t a, int32_t b) {
                const int32_t ra =
                    ranks_[static_cast<size_t>(molecule_.OtherEnd(a, atom))];
                const int32_t rb =
                    ranks_[static_cast<size_t>(molecule_.OtherEnd(b, atom))];
                if (ra != rb) return ra < rb;
                return a < b;
              });
    return bonds;
  }

  std::string WriteAtom(int32_t atom, int32_t parent_bond) {
    visited_[static_cast<size_t>(atom)] = true;
    std::string out = AtomToken(molecule_.atom(atom));

    // Pass 1: classify incident bonds (ring closures vs tree children).
    std::vector<int32_t> children;
    for (int32_t bond_index : OrderedBonds(atom)) {
      if (bond_index == parent_bond ||
          bond_used_[static_cast<size_t>(bond_index)]) {
        continue;
      }
      const int32_t other = molecule_.OtherEnd(bond_index, atom);
      if (visited_[static_cast<size_t>(other)]) {
        // Back edge: open a ring closure here, close at the ancestor's
        // pending list.
        bond_used_[static_cast<size_t>(bond_index)] = true;
        const int32_t digit = next_ring_digit_++;
        out += BondSymbol(molecule_.bond(bond_index));
        out += RingDigitToken(digit);
        pending_ring_digits_[other].push_back(digit);
      } else {
        children.push_back(bond_index);
      }
    }
    // Ring closures opened by descendants that close at this atom were
    // recorded before we emitted — but closure digits must follow the
    // atom token, and descendants run after us. The writer therefore
    // emits closures discovered *so far*; digits recorded later are
    // spliced via the placeholder below.
    out += kClosureAnchor;

    for (size_t c = 0; c < children.size(); ++c) {
      const int32_t bond_index = children[c];
      if (bond_used_[static_cast<size_t>(bond_index)]) continue;
      bond_used_[static_cast<size_t>(bond_index)] = true;
      const int32_t child = molecule_.OtherEnd(bond_index, atom);
      if (visited_[static_cast<size_t>(child)]) continue;
      std::string branch = BondSymbol(molecule_.bond(bond_index)) +
                           WriteAtom(child, bond_index);
      const bool last = (c + 1 == children.size());
      out += last ? branch : "(" + branch + ")";
    }

    // Splice this atom's closure digits into its anchor.
    std::string closures;
    auto it = pending_ring_digits_.find(atom);
    if (it != pending_ring_digits_.end()) {
      for (int32_t digit : it->second) closures += RingDigitToken(digit);
    }
    const size_t anchor = out.find(kClosureAnchor);
    out.replace(anchor, sizeof(kClosureAnchor) - 1, closures);
    return out;
  }

  static constexpr char kClosureAnchor[] = "\x01";
  static constexpr int32_t kMaxRingLabel = 99;

  const MolecularGraph& molecule_;
  const std::vector<int32_t>& ranks_;
  std::vector<bool> visited_;
  std::vector<bool> bond_used_;
  std::map<int32_t, std::vector<int32_t>> pending_ring_digits_;
  int32_t next_ring_digit_ = 1;
};

}  // namespace

std::vector<int32_t> CanonicalRanks(const MolecularGraph& molecule) {
  const int32_t n = molecule.num_atoms();
  std::vector<uint64_t> invariants(static_cast<size_t>(n));
  for (int32_t atom = 0; atom < n; ++atom) {
    const Atom& a = molecule.atom(atom);
    uint64_t h = 1469598103934665603ULL;
    for (char c : a.element) h = MixHash(h, static_cast<uint64_t>(c));
    h = MixHash(h, a.aromatic ? 1 : 0);
    h = MixHash(h, static_cast<uint64_t>(a.charge + 16));
    h = MixHash(h, static_cast<uint64_t>(
                       std::max(a.explicit_hydrogens, -1) + 1));
    h = MixHash(h, static_cast<uint64_t>(molecule.Degree(atom)));
    invariants[static_cast<size_t>(atom)] = h;
  }
  std::vector<int32_t> ranks =
      RefineToFixpoint(molecule, Densify(invariants));

  // Tie-breaking: while classes remain, split the lowest tied class and
  // re-refine. For automorphic ties any member yields the same string.
  while (DistinctCount(ranks) < n) {
    std::map<int32_t, std::vector<int32_t>> classes;
    for (int32_t atom = 0; atom < n; ++atom) {
      classes[ranks[static_cast<size_t>(atom)]].push_back(atom);
    }
    for (const auto& [rank, atoms] : classes) {
      if (atoms.size() > 1) {
        // Promote one member: double all ranks, subtract 1 for the
        // chosen atom so it becomes unique, then re-refine.
        for (auto& r : ranks) r *= 2;
        ranks[static_cast<size_t>(atoms.front())] -= 1;
        break;
      }
    }
    std::vector<uint64_t> as_invariants(ranks.begin(), ranks.end());
    ranks = RefineToFixpoint(molecule, Densify(as_invariants));
  }
  return ranks;
}

Result<std::string> CanonicalSmiles(const std::string& smiles) {
  auto molecule_or = MolecularGraph::FromSmiles(smiles);
  if (!molecule_or.ok()) return molecule_or.status();
  const MolecularGraph& molecule = molecule_or.value();
  if (molecule.num_atoms() == 0) {
    return Status::InvalidArgument("no atoms in SMILES");
  }
  const std::vector<int32_t> ranks = CanonicalRanks(molecule);

  // Write each connected component from its minimum-rank atom; order
  // components lexicographically so the output is spelling-independent.
  ComponentWriter writer(molecule, ranks);
  std::vector<int32_t> atoms_by_rank(
      static_cast<size_t>(molecule.num_atoms()));
  for (int32_t atom = 0; atom < molecule.num_atoms(); ++atom) {
    atoms_by_rank[static_cast<size_t>(ranks[static_cast<size_t>(atom)])] =
        atom;
  }
  std::vector<std::string> components;
  for (int32_t root : atoms_by_rank) {
    if (writer.visited()[static_cast<size_t>(root)]) continue;
    auto component_or = writer.Write(root);
    if (!component_or.ok()) return component_or.status();
    components.push_back(std::move(component_or.value()));
  }
  std::sort(components.begin(), components.end());
  std::string out;
  for (size_t c = 0; c < components.size(); ++c) {
    if (c > 0) out += '.';
    out += components[c];
  }
  return out;
}

}  // namespace hygnn::chem
