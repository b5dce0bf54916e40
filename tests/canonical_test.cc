#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chem/canonical.h"
#include "chem/fragments.h"
#include "chem/generator.h"
#include "chem/molgraph.h"
#include "chem/smiles.h"
#include "core/rng.h"

namespace hygnn::chem {
namespace {

TEST(CanonicalRanksTest, IsPermutation) {
  auto mol = MolecularGraph::FromSmiles("CC(=O)Oc1ccccc1C(=O)O").value();
  auto ranks = CanonicalRanks(mol);
  std::set<int32_t> unique(ranks.begin(), ranks.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(mol.num_atoms()));
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), mol.num_atoms() - 1);
}

TEST(CanonicalSmilesTest, OutputIsValidSmiles) {
  for (const char* smiles :
       {"CCO", "CC(=O)Oc1ccccc1C(=O)O", "NC(N)=NCC1COC2(CCCCC2)O1",
        "C[N+](=O)[O-]", "c1cnc[nH]1", "CCO.CCN"}) {
    auto canonical = CanonicalSmiles(smiles).value();
    EXPECT_TRUE(ValidateSmiles(canonical).ok())
        << smiles << " -> " << canonical;
  }
}

TEST(CanonicalSmilesTest, EquivalentSpellingsAgree) {
  const std::pair<const char*, const char*> equivalent[] = {
      {"CCO", "OCC"},
      {"CC(C)C", "C(C)(C)C"},
      {"C(=O)O", "OC=O"},
      {"c1ccccc1", "c1ccccc1"},
      {"CCN(CC)CC", "N(CC)(CC)CC"},
      {"C1CCCCC1", "C1CCCCC1"},
      {"CC(=O)N", "NC(C)=O"},
      {"CCO.CCN", "CCN.CCO"},  // component order
  };
  for (const auto& [a, b] : equivalent) {
    auto ca = CanonicalSmiles(a).value();
    auto cb = CanonicalSmiles(b).value();
    EXPECT_EQ(ca, cb) << a << " vs " << b;
  }
}

TEST(CanonicalSmilesTest, DistinctMoleculesDiffer) {
  const std::pair<const char*, const char*> different[] = {
      {"CCO", "CCN"},
      {"CCO", "CCCO"},
      {"C=CC", "CCC"},
      {"c1ccccc1", "C1CCCCC1"},
      {"C[N+](=O)[O-]", "CN(=O)O"},
  };
  for (const auto& [a, b] : different) {
    EXPECT_NE(CanonicalSmiles(a).value(), CanonicalSmiles(b).value())
        << a << " vs " << b;
  }
}

TEST(CanonicalSmilesTest, Idempotent) {
  for (const char* smiles :
       {"CC(=O)Oc1ccccc1C(=O)O", "NC(N)=NCC1COC2(CCCCC2)O1",
        "N1CCOCC1C(F)(F)F"}) {
    auto once = CanonicalSmiles(smiles).value();
    auto twice = CanonicalSmiles(once).value();
    EXPECT_EQ(once, twice) << smiles;
  }
}

TEST(CanonicalSmilesTest, PreservesAtomAndBondCounts) {
  for (const char* smiles :
       {"CC(=O)Oc1ccccc1C(=O)O", "C1CC1C1CC1", "OP(=O)(O)O"}) {
    auto original = MolecularGraph::FromSmiles(smiles).value();
    auto canonical = CanonicalSmiles(smiles).value();
    auto reparsed = MolecularGraph::FromSmiles(canonical).value();
    EXPECT_EQ(reparsed.num_atoms(), original.num_atoms()) << canonical;
    EXPECT_EQ(reparsed.num_bonds(), original.num_bonds()) << canonical;
  }
}

TEST(CanonicalSmilesTest, RejectsInvalid) {
  EXPECT_FALSE(CanonicalSmiles("C(C").ok());
  EXPECT_FALSE(CanonicalSmiles("").ok());
}

/// `copies` cyclopropanes in one chain: one component whose writer
/// opens a ring-closure label per ring and never reuses one.
std::string ChainedCyclopropanes(int copies) {
  std::string smiles;
  for (int i = 0; i < copies; ++i) smiles += "C1CC1";
  return smiles;
}

/// The tokenizer reads `%` plus two digits, so 99 labels is the most a
/// component can spell; more must fail rather than read back as another
/// molecule.
TEST(CanonicalSmilesTest, RingLabelsStopAtNinetyNine) {
  const std::string smiles = ChainedCyclopropanes(99);
  auto original = MolecularGraph::FromSmiles(smiles).value();
  auto canonical_or = CanonicalSmiles(smiles);
  ASSERT_TRUE(canonical_or.ok()) << canonical_or.status().ToString();
  const std::string& canonical = canonical_or.value();
  EXPECT_NE(canonical.find("%99"), std::string::npos);
  auto reparsed = MolecularGraph::FromSmiles(canonical).value();
  EXPECT_EQ(reparsed.num_atoms(), original.num_atoms());
  EXPECT_EQ(reparsed.num_bonds(), original.num_bonds());
  EXPECT_EQ(CanonicalSmiles(canonical).value(), canonical);

  for (int copies : {100, 101}) {
    const auto status = CanonicalSmiles(ChainedCyclopropanes(copies)).status();
    EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument) << copies;
  }
}

/// IncidentBonds(atom) is the ascending scan of bonds() that touch
/// `atom`.
void ExpectIncidentBondsAscending(const MolecularGraph& mol) {
  for (int32_t atom = 0; atom < mol.num_atoms(); ++atom) {
    std::vector<int32_t> expected;
    for (int32_t b = 0; b < mol.num_bonds(); ++b) {
      if (mol.bond(b).a == atom) expected.push_back(b);
      if (mol.bond(b).b == atom) expected.push_back(b);
    }
    const auto bonds = mol.IncidentBonds(atom);
    EXPECT_EQ(std::vector<int32_t>(bonds.begin(), bonds.end()), expected)
        << "atom " << atom;
  }
}

/// Property sweep: every generator-produced drug canonicalizes to a
/// valid, idempotent, graph-preserving form, and the canonical form is
/// invariant under re-parsing.
class CanonicalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalPropertyTest, GeneratedDrugsRoundTrip) {
  SmilesGenerator generator;
  core::Rng rng(GetParam());
  auto groups = FunctionalGroupIndices();
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<int32_t> picked;
    for (size_t s : rng.SampleWithoutReplacement(groups.size(),
                                                 1 + rng.UniformInt(3))) {
      picked.push_back(groups[s]);
    }
    auto smiles =
        generator.Generate(picked, static_cast<int32_t>(rng.UniformInt(5)),
                           &rng)
            .value();
    auto canonical_or = CanonicalSmiles(smiles);
    ASSERT_TRUE(canonical_or.ok())
        << smiles << ": " << canonical_or.status().ToString();
    const std::string canonical = canonical_or.value();
    EXPECT_TRUE(ValidateSmiles(canonical).ok()) << canonical;
    EXPECT_EQ(CanonicalSmiles(canonical).value(), canonical)
        << smiles << " -> " << canonical;
    auto original = MolecularGraph::FromSmiles(smiles).value();
    auto reparsed = MolecularGraph::FromSmiles(canonical).value();
    EXPECT_EQ(reparsed.num_atoms(), original.num_atoms());
    EXPECT_EQ(reparsed.num_bonds(), original.num_bonds());
    ExpectIncidentBondsAscending(original);
    ExpectIncidentBondsAscending(reparsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace hygnn::chem
