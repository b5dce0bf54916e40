#ifndef HYGNN_CHEM_CANONICAL_H_
#define HYGNN_CHEM_CANONICAL_H_

#include <string>
#include <vector>

#include "chem/molgraph.h"
#include "core/status.h"

namespace hygnn::chem {

/// Produces a canonical SMILES string: two SMILES spellings of the same
/// molecular graph map to the same output. This is the role PubChem
/// canonicalization plays in the paper's pipeline (§IV-A: "we
/// canonicalized each of the SMILES").
///
/// Canonical atom ranks come from Morgan-style iterative refinement of
/// (element, aromaticity, charge, degree) invariants with deterministic
/// tie-breaking; the writer emits a rank-ordered DFS with ring-closure
/// digits for the non-tree bonds. Stereochemistry and isotopes are not
/// preserved (they are parsed and dropped, as in the rest of the
/// library). Each ring closure takes a label of its own, so a connected
/// component with more than 99 of them (SMILES stops at `%99`) returns
/// InvalidArgument.
core::Result<std::string> CanonicalSmiles(const std::string& smiles);

/// Canonical ranks (a permutation of [0, num_atoms)) of a parsed
/// molecule; exposed for testing and for callers that need a canonical
/// atom order without re-serializing.
std::vector<int32_t> CanonicalRanks(const MolecularGraph& molecule);

}  // namespace hygnn::chem

#endif  // HYGNN_CHEM_CANONICAL_H_
