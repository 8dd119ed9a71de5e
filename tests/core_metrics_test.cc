#include "core/metrics.h"

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "fusion/accu.h"
#include "fusion/voting.h"

namespace veritas {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  Database db_ = MakeMovieDatabase();
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  AccuFusion model_;
};

TEST_F(MetricsTest, DistanceZeroWhenFusionMatchesTruth) {
  // Pin every item to its true claim: distance must be exactly 0.
  PriorSet priors;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    ASSERT_TRUE(priors.SetExact(db_, i, truth_.TrueClaim(i)).ok());
  }
  const FusionResult r = model_.Fuse(db_, priors, FusionOptions{});
  EXPECT_DOUBLE_EQ(DistanceToGroundTruth(r, truth_), 0.0);
}

TEST_F(MetricsTest, DistanceCountsOnlyTrueClaims) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  // Manual: sum over items of (1 - p_true) / |O|.
  double expected = 0.0;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    expected += (1.0 - r.prob(i, truth_.TrueClaim(i)));
  }
  expected /= static_cast<double>(db_.num_items());
  EXPECT_NEAR(DistanceToGroundTruth(r, truth_), expected, 1e-12);
}

TEST_F(MetricsTest, DistanceIgnoresUnknownTruth) {
  GroundTruth partial(db_);
  ASSERT_TRUE(partial.SetByValue(db_, "Zootopia", "Howard").ok());
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  const double d = DistanceToGroundTruth(r, partial);
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const double manual =
      (1.0 - r.prob(zootopia, *db_.FindClaim(zootopia, "Howard"))) / 6.0;
  EXPECT_NEAR(d, manual, 1e-12);
}

TEST_F(MetricsTest, DistanceBounds) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  const double d = DistanceToGroundTruth(r, truth_);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST_F(MetricsTest, UncertaintyIsTotalEntropy) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  EXPECT_DOUBLE_EQ(Uncertainty(r), r.TotalEntropy());
  EXPECT_DOUBLE_EQ(EntropyUtility(r), -r.TotalEntropy());
}

TEST_F(MetricsTest, UncertaintyAtPaperBudgetMatchesExample43) {
  // EU(D, F) = 0.437 in Example 4.3 (we land within 0.02 with the same
  // iteration budget).
  const FusionResult r = model_.Fuse(db_, PaperExampleFusionOptions());
  EXPECT_NEAR(Uncertainty(r), 0.437, 0.02);
}

TEST_F(MetricsTest, GroundTruthUtilityDefinition3) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  double expected = 0.0;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    expected += r.prob(i, truth_.TrueClaim(i)) /
                static_cast<double>(db_.num_claims(i));
  }
  expected /= static_cast<double>(db_.num_claims());
  EXPECT_NEAR(GroundTruthUtility(r, truth_), expected, 1e-12);
}

TEST_F(MetricsTest, GroundTruthUtilityPerfectWhenPinnedToTruth) {
  PriorSet priors;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    ASSERT_TRUE(priors.SetExact(db_, i, truth_.TrueClaim(i)).ok());
  }
  const FusionResult r = model_.Fuse(db_, priors, FusionOptions{});
  // U = (1/|V|) sum_i 1 / |V_i|; with 5 binary items and 1 singleton:
  // (5 * 0.5 + 1) / 11.
  EXPECT_NEAR(GroundTruthUtility(r, truth_), (5 * 0.5 + 1.0) / 11.0,
              1e-12);
}

TEST_F(MetricsTest, FusionAccuracyCountsWinners) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  // Fusion gets 4 of 6 right (it misses Zootopia=Howard and
  // Kung Fu Panda=Stevenson, per Table 3 vs the stars of Table 1).
  EXPECT_NEAR(FusionAccuracy(r, truth_), 4.0 / 6.0, 1e-12);
}

TEST_F(MetricsTest, FusionAccuracyEmptyTruth) {
  const FusionResult r = model_.Fuse(db_, FusionOptions{});
  GroundTruth empty(db_);
  EXPECT_DOUBLE_EQ(FusionAccuracy(r, empty), 0.0);
}

TEST_F(MetricsTest, ValidationZeroesTheItemsOwnError) {
  // Validating the true claim of a mispredicted item removes that item's
  // contribution to the distance entirely. (Globally, a single validation
  // can even hurt on adversarial data like this example — the minority
  // truth of Zootopia punishes sources that are right elsewhere — which is
  // exactly why the paper orders validations instead of assuming any one
  // helps.)
  const FusionOptions opts = PaperExampleFusionOptions();
  const FusionResult before = model_.Fuse(db_, opts);
  PriorSet priors;
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const ClaimIndex howard = truth_.TrueClaim(zootopia);
  ASSERT_TRUE(priors.SetExact(db_, zootopia, howard).ok());
  const FusionResult after = model_.Fuse(db_, priors, opts);
  EXPECT_LT(1.0 - before.prob(zootopia, howard), 1.0 + 1e-12);
  EXPECT_DOUBLE_EQ(1.0 - after.prob(zootopia, howard), 0.0);
  // Validating *all* items always lands at distance zero.
  PriorSet all;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    ASSERT_TRUE(all.SetExact(db_, i, truth_.TrueClaim(i)).ok());
  }
  const FusionResult full = model_.Fuse(db_, all, opts);
  EXPECT_NEAR(DistanceToGroundTruth(full, truth_), 0.0, 1e-12);
}

}  // namespace
}  // namespace veritas
