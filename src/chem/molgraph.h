#ifndef HYGNN_CHEM_MOLGRAPH_H_
#define HYGNN_CHEM_MOLGRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/csr.h"
#include "core/status.h"

namespace hygnn::chem {

/// An atom of a parsed molecule.
struct Atom {
  std::string element;  // "C", "N", "Cl", ... (capitalized)
  bool aromatic = false;
  int32_t charge = 0;
  int32_t explicit_hydrogens = -1;  // -1 = unspecified
};

/// A bond between two atoms (indices into the atom list).
struct Bond {
  int32_t a = 0;
  int32_t b = 0;
  int32_t order = 1;      // 1, 2, 3
  bool aromatic = false;  // aromatic ring bond
};

/// A molecular graph parsed from a SMILES string: atoms, bonds, and
/// per-atom adjacency. This is the structure fingerprinting operates
/// on (the paper's related work builds molecular graphs from SMILES,
/// e.g. Vilar et al.'s fingerprint similarity and Chen et al.'s
/// molecular-graph representation learning).
class MolecularGraph {
 public:
  /// Parses a SMILES string into atoms and bonds. Handles the organic
  /// subset, aromatic atoms, bracket atoms ([NH4+], [O-], [C@@H], ...),
  /// branches, ring closures (digits and %nn), explicit bond orders,
  /// and dot-separated components. Chirality and isotopes are parsed
  /// but ignored. Fails with InvalidArgument on malformed input.
  static core::Result<MolecularGraph> FromSmiles(const std::string& smiles);

  int32_t num_atoms() const { return static_cast<int32_t>(atoms_.size()); }
  int32_t num_bonds() const { return static_cast<int32_t>(bonds_.size()); }

  const Atom& atom(int32_t index) const { return atoms_[index]; }
  const Bond& bond(int32_t index) const { return bonds_[index]; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<Bond>& bonds() const { return bonds_; }

  /// Bond indices incident to `atom`, ascending.
  std::span<const int32_t> IncidentBonds(int32_t atom) const;

  /// Degree (number of explicit bonds) of `atom`.
  int64_t Degree(int32_t atom) const;

  /// The atom on the other end of `bond_index` from `atom`.
  int32_t OtherEnd(int32_t bond_index, int32_t atom) const;

 private:
  friend class SmilesParser;
  std::vector<Atom> atoms_;
  std::vector<Bond> bonds_;
  core::Csr incidence_;  // each atom's bonds

  void BuildIncidence();
};

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_MOLGRAPH_H_
