// Unit tests of the FusionResult container (<P, A> of Definition 2).
#include "fusion/fusion_result.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "util/math.h"

namespace veritas {
namespace {

// Overwrites item i's distribution in place (same claim count).
void SetItemProbs(FusionResult* r, ItemId i, const std::vector<double>& p) {
  const std::span<double> out = r->mutable_item_probs(i);
  ASSERT_EQ(out.size(), p.size());
  std::copy(p.begin(), p.end(), out.begin());
}

TEST(FusionResultTest, ConstructorShapesFromDatabase) {
  const Database db = MakeMovieDatabase();
  FusionResult r(db, 0.8);
  EXPECT_EQ(r.num_items(), db.num_items());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    EXPECT_EQ(r.item_probs(i).size(), db.num_claims(i));
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) {
      EXPECT_DOUBLE_EQ(r.prob(i, k), 0.0);
    }
  }
  ASSERT_EQ(r.accuracies().size(), db.num_sources());
  for (double a : r.accuracies()) EXPECT_DOUBLE_EQ(a, 0.8);
}

TEST(FusionResultTest, ProbabilitiesAreFlatByGlobalClaimId) {
  const Database db = MakeMovieDatabase();
  const CompiledDatabase c(db);
  FusionResult r(c, 0.8);
  ASSERT_EQ(r.num_items(), c.num_items());
  ASSERT_EQ(r.probs().size(), c.num_claims());
  for (ItemId i = 0; i < c.num_items(); ++i) {
    EXPECT_EQ(r.item_probs(i).data(), r.probs().data() + c.claim_offset(i));
    EXPECT_EQ(r.item_probs(i).size(), c.item_num_claims(i));
  }
  const ItemId minions = *db.FindItem("Minions");
  r.mutable_probs()[c.claim_offset(minions) + 1] = 0.25;
  EXPECT_DOUBLE_EQ(r.prob(minions, 1), 0.25);
}

TEST(FusionResultTest, DefaultConstructedIsEmpty) {
  FusionResult r;
  EXPECT_EQ(r.num_items(), 0u);
  EXPECT_DOUBLE_EQ(r.TotalEntropy(), 0.0);
  EXPECT_EQ(r.iterations(), 0u);
  EXPECT_FALSE(r.converged());
}

TEST(FusionResultTest, WinningClaimFirstMaxWins) {
  const Database db = MakeMovieDatabase();
  FusionResult r(db, 0.8);
  const ItemId zootopia = *db.FindItem("Zootopia");
  SetItemProbs(&r, zootopia, {0.5, 0.5});  // Tie: first wins.
  EXPECT_EQ(r.WinningClaim(zootopia), 0u);
  SetItemProbs(&r, zootopia, {0.3, 0.7});
  EXPECT_EQ(r.WinningClaim(zootopia), 1u);
}

TEST(FusionResultTest, ItemEntropyMatchesFormula) {
  const Database db = MakeMovieDatabase();
  FusionResult r(db, 0.8);
  const ItemId minions = *db.FindItem("Minions");
  SetItemProbs(&r, minions, {0.921, 0.079});
  EXPECT_NEAR(r.ItemEntropy(minions),
              Entropy(std::vector<double>{0.921, 0.079}), 1e-12);
  EXPECT_NEAR(r.ItemEntropy(minions), 0.276, 5e-4);  // Example 4.2.
}

TEST(FusionResultTest, TotalEntropySumsItems) {
  const Database db = MakeMovieDatabase();
  FusionResult r(db, 0.8);
  double expected = 0.0;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    std::vector<double> probs(db.num_claims(i),
                              1.0 / static_cast<double>(db.num_claims(i)));
    SetItemProbs(&r, i, probs);
    expected += Entropy(probs);
  }
  EXPECT_NEAR(r.TotalEntropy(), expected, 1e-12);
}

TEST(FusionResultTest, IterationAndConvergenceFlags) {
  FusionResult r;
  r.set_iterations(13);
  r.set_converged(true);
  EXPECT_EQ(r.iterations(), 13u);
  EXPECT_TRUE(r.converged());
}

TEST(FusionResultTest, MutableAccuracies) {
  const Database db = MakeMovieDatabase();
  FusionResult r(db, 0.8);
  (*r.mutable_accuracies())[0] = 0.33;
  EXPECT_DOUBLE_EQ(r.accuracy(0), 0.33);
}

TEST(FusionResultTest, CopySemantics) {
  const Database db = MakeMovieDatabase();
  FusionResult a(db, 0.8);
  SetItemProbs(&a, 0, {0.25, 0.75});
  FusionResult b = a;
  SetItemProbs(&b, 0, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(a.prob(0, 1), 0.75);  // Deep copy.
  EXPECT_DOUBLE_EQ(b.prob(0, 1), 0.0);
}

}  // namespace
}  // namespace veritas
