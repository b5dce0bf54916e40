#include <string>

#include <gtest/gtest.h>

#include "chem/smiles.h"

namespace hygnn::chem {
namespace {

TEST(TokenizerTest, SimpleChain) {
  auto tokens = TokenizeSmiles("CCO").value();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, SmilesTokenType::kAtom);
  EXPECT_EQ(tokens[0].text, "C");
  EXPECT_EQ(tokens[2].text, "O");
}

TEST(TokenizerTest, TwoCharElements) {
  auto tokens = TokenizeSmiles("CClBrC").value();
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].text, "Cl");
  EXPECT_EQ(tokens[2].text, "Br");
}

TEST(TokenizerTest, AromaticAtoms) {
  auto tokens = TokenizeSmiles("c1ccccc1").value();
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].text, "c");
  EXPECT_EQ(tokens[1].type, SmilesTokenType::kRingBond);
}

TEST(TokenizerTest, BracketAtomIsOneToken) {
  auto tokens = TokenizeSmiles("C[NH4+]C").value();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, SmilesTokenType::kBracketAtom);
  EXPECT_EQ(tokens[1].text, "[NH4+]");
}

TEST(TokenizerTest, BondsAndBranches) {
  auto tokens = TokenizeSmiles("C(=O)O").value();
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[1].type, SmilesTokenType::kBranchOpen);
  EXPECT_EQ(tokens[2].type, SmilesTokenType::kBond);
  EXPECT_EQ(tokens[2].text, "=");
  EXPECT_EQ(tokens[5].type, SmilesTokenType::kAtom);
}

TEST(TokenizerTest, PercentRingClosure) {
  auto tokens = TokenizeSmiles("C%12CCCCC%12").value();
  EXPECT_EQ(tokens[1].type, SmilesTokenType::kRingBond);
  EXPECT_EQ(tokens[1].text, "%12");
}

TEST(TokenizerTest, PaperExampleDb00226) {
  // The paper's running example (§III-B).
  const std::string smiles = "NC(N)=NCC1COC2(CCCCC2)O1";
  auto tokens_or = TokenizeSmiles(smiles);
  ASSERT_TRUE(tokens_or.ok()) << tokens_or.status().ToString();
  std::string reconstructed;
  for (const auto& t : tokens_or.value()) reconstructed += t.text;
  EXPECT_EQ(reconstructed, smiles);
}

TEST(TokenizerTest, RejectsInvalid) {
  EXPECT_FALSE(TokenizeSmiles("").ok());
  EXPECT_FALSE(TokenizeSmiles("CXC").ok());       // X not an element
  EXPECT_FALSE(TokenizeSmiles("C[NH4").ok());     // unterminated bracket
  EXPECT_FALSE(TokenizeSmiles("C]C").ok());       // stray close bracket
  EXPECT_FALSE(TokenizeSmiles("C C").ok());       // whitespace
  EXPECT_FALSE(TokenizeSmiles("C%1C").ok());      // bad %nn
}

TEST(ValidatorTest, AcceptsRealDrugSmiles) {
  // Aspirin, caffeine, ibuprofen.
  EXPECT_TRUE(ValidateSmiles("CC(=O)Oc1ccccc1C(=O)O").ok());
  EXPECT_TRUE(ValidateSmiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C").ok());
  EXPECT_TRUE(ValidateSmiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O").ok());
}

TEST(ValidatorTest, RejectsStructuralErrors) {
  EXPECT_FALSE(ValidateSmiles("C(C").ok());    // unbalanced (
  EXPECT_FALSE(ValidateSmiles("CC)").ok());    // unmatched )
  EXPECT_FALSE(ValidateSmiles("C1CC").ok());   // unclosed ring
  EXPECT_FALSE(ValidateSmiles("=CC").ok());    // leading bond
  EXPECT_FALSE(ValidateSmiles("CC=").ok());    // trailing bond
  EXPECT_FALSE(ValidateSmiles("C==C").ok());   // double bond symbol
  EXPECT_FALSE(ValidateSmiles("C()C").ok());   // empty branch
  EXPECT_FALSE(ValidateSmiles("(CC)").ok());   // branch before any atom
}

TEST(ValidatorTest, RingLabelReuseIsLegal) {
  // Label 1 closes, then reopens: two separate rings.
  EXPECT_TRUE(ValidateSmiles("C1CCCCC1C1CCCCC1").ok());
}

TEST(ValidatorTest, DisconnectedComponents) {
  EXPECT_TRUE(ValidateSmiles("CCO.CCN").ok());
}

// Parameterized sweep: every token type round-trips through the
// tokenizer (concatenating token texts reproduces the input).
class RoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripTest, TokensReconstructInput) {
  const std::string& smiles = GetParam();
  auto tokens_or = TokenizeSmiles(smiles);
  ASSERT_TRUE(tokens_or.ok()) << smiles;
  std::string reconstructed;
  for (const auto& t : tokens_or.value()) reconstructed += t.text;
  EXPECT_EQ(reconstructed, smiles);
  EXPECT_TRUE(ValidateSmiles(smiles).ok()) << smiles;
}

INSTANTIATE_TEST_SUITE_P(
    DrugLikeSmiles, RoundTripTest,
    ::testing::Values(
        "CC(=O)Oc1ccccc1C(=O)O",          // aspirin
        "Cn1cnc2c1c(=O)n(C)c(=O)n2C",     // caffeine
        "CC(C)Cc1ccc(cc1)C(C)C(=O)O",     // ibuprofen
        "NC(N)=NCC1COC2(CCCCC2)O1",       // paper's DB00226
        "C(F)(F)F",                       // trifluoromethyl
        "[N+](=O)[O-]",                   // nitro (bracket atoms)
        "c1cnc[nH]1",                     // imidazole
        "OP(=O)(O)O",                     // phosphate
        "C1CCCCC1C1CCCCC1",               // ring label reuse
        "CCO.CCN"));                      // disconnected

}  // namespace
}  // namespace hygnn::chem
