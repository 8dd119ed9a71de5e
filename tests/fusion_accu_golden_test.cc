// Hand-computed golden tests of Eq. (1): single probability passes with
// known accuracies, checked against closed-form arithmetic (no iteration).
#include <cmath>

#include <gtest/gtest.h>

#include "fusion/accu.h"
#include "model/compiled_database.h"
#include "model/database_builder.h"

namespace veritas {
namespace {

// Three sources, one 2-claim item: a (s1, s2) vs b (s3).
Database TwoClaimItem() {
  DatabaseBuilder builder;
  EXPECT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  EXPECT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  EXPECT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  return builder.Build();
}

TEST(AccuGoldenTest, TwoClaimSingleApplication) {
  // With A = (0.9, 0.6, 0.8) and |V|-1 = 1:
  //   w(s) = A/(1-A):  s1 -> 9, s2 -> 1.5, s3 -> 4
  //   score(a) = 9 * 1.5 = 13.5, score(b) = 4
  //   p(a) = 13.5 / 17.5.
  const Database db = TwoClaimItem();
  const CompiledDatabase compiled(db);
  std::vector<double> accuracies(3);
  accuracies[*db.FindSource("s1")] = 0.9;
  accuracies[*db.FindSource("s2")] = 0.6;
  accuracies[*db.FindSource("s3")] = 0.8;
  const auto probs = AccuFusion::ClaimProbabilities(compiled, 0, accuracies);
  const ClaimIndex a = *db.FindClaim(0, "a");
  const ClaimIndex b = *db.FindClaim(0, "b");
  EXPECT_NEAR(probs[a], 13.5 / 17.5, 1e-12);
  EXPECT_NEAR(probs[b], 4.0 / 17.5, 1e-12);
}

TEST(AccuGoldenTest, SingleVoteEachSideReducesToOddsRatio) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("p", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("q", "x", "b").ok());
  const Database db = builder.Build();
  const CompiledDatabase compiled(db);
  std::vector<double> accuracies(2);
  accuracies[*db.FindSource("p")] = 0.75;  // Odds 3.
  accuracies[*db.FindSource("q")] = 0.5;   // Odds 1.
  const auto probs = AccuFusion::ClaimProbabilities(compiled, 0, accuracies);
  EXPECT_NEAR(probs[*db.FindClaim(0, "a")], 3.0 / 4.0, 1e-12);
}

TEST(AccuGoldenTest, ThreeClaimFalseValueFactor) {
  // |V| = 3 so each vote's weight is 2A/(1-A):
  //   A = 0.8 everywhere -> weight 8 per vote.
  //   votes: a x2, b x1, c x1 -> scores 64, 8, 8 -> p(a) = 64/80 = 0.8.
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s3", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("s4", "x", "c").ok());
  const Database db = builder.Build();
  const CompiledDatabase compiled(db);
  const std::vector<double> accuracies(4, 0.8);
  const auto probs = AccuFusion::ClaimProbabilities(compiled, 0, accuracies);
  EXPECT_NEAR(probs[*db.FindClaim(0, "a")], 0.8, 1e-12);
  EXPECT_NEAR(probs[*db.FindClaim(0, "b")], 0.1, 1e-12);
  EXPECT_NEAR(probs[*db.FindClaim(0, "c")], 0.1, 1e-12);
}

TEST(AccuGoldenTest, LogScoresMatchHandComputation) {
  const Database db = TwoClaimItem();
  const CompiledDatabase compiled(db);
  std::vector<double> accuracies(3, 0.8);
  const auto scores = AccuFusion::ClaimLogScores(compiled, 0, accuracies);
  // Each vote contributes ln(1 * 0.8 / 0.2) = ln 4.
  EXPECT_NEAR(scores[*db.FindClaim(0, "a")], 2.0 * std::log(4.0), 1e-12);
  EXPECT_NEAR(scores[*db.FindClaim(0, "b")], std::log(4.0), 1e-12);
}

TEST(AccuGoldenTest, AccuracyUpdateIsMeanOfClaimProbabilities) {
  // Eq. (2) after one probability pass with initial A = 0.8 everywhere.
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("s1", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("s1", "y", "c").ok());
  ASSERT_TRUE(builder.AddObservation("s2", "y", "c").ok());
  const Database db = builder.Build();
  AccuFusion model;
  FusionOptions opts;
  opts.max_iterations = 1;
  const FusionResult r = model.Fuse(db, opts);
  // After iteration 1: p(x:a) = p(x:b) = 0.5, p(y:c) = 1.
  // A(s1) = (0.5 + 1) / 2 = 0.75 (same for s2); the final probability pass
  // re-applies Eq. (1) with those accuracies — x stays split by symmetry.
  EXPECT_NEAR(r.accuracy(*db.FindSource("s1")), 0.75, 1e-9);
  EXPECT_NEAR(r.accuracy(*db.FindSource("s2")), 0.75, 1e-9);
  EXPECT_NEAR(r.prob(*db.FindItem("x"), 0), 0.5, 1e-9);
}

TEST(AccuGoldenTest, ExtremeAccuracySourceDominates) {
  DatabaseBuilder builder;
  ASSERT_TRUE(builder.AddObservation("expert", "x", "a").ok());
  ASSERT_TRUE(builder.AddObservation("n1", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("n2", "x", "b").ok());
  ASSERT_TRUE(builder.AddObservation("n3", "x", "b").ok());
  const Database db = builder.Build();
  const CompiledDatabase compiled(db);
  std::vector<double> accuracies(4, 0.6);  // Odds 1.5 each.
  accuracies[*db.FindSource("expert")] = 0.99;  // Odds 99.
  const auto probs = AccuFusion::ClaimProbabilities(compiled, 0, accuracies);
  // score(a) = 99 vs score(b) = 1.5^3 = 3.375 -> expert wins big.
  EXPECT_NEAR(probs[*db.FindClaim(0, "a")], 99.0 / (99.0 + 3.375), 1e-9);
}

}  // namespace
}  // namespace veritas
