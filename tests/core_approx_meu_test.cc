// Tests of Approx-MEU (§4.2.3, Appendix A): the Eq. (9) accuracy deltas, the
// Eq. (10) differential estimates (closed form vs literal), the one-hop
// truncation, and the strategy itself.
#include "core/approx_meu.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/meu.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class ApproxMeuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.db = &db_;
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.include_singletons = true;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;

  // Eq. (9) deltas of validating `item` as `claim`.
  AccuracyDeltas Deltas(ItemId item, ClaimIndex claim) const {
    AccuracyDeltas deltas;
    ComputeAccuracyDeltas(compiled_, fusion_, item, claim, &deltas);
    return deltas;
  }

  // The closed-form estimate of item j under `deltas`.
  std::vector<double> Estimate(ItemId j, const AccuracyDeltas& deltas) const {
    std::vector<double> updated;
    EstimateUpdatedProbs(compiled_, fusion_, j, deltas, &updated);
    return updated;
  }
};

TEST_F(ApproxMeuTest, AccuracyDeltasFollowEq9) {
  // Validate O3 = Docter. S3 (votes Docter, N=4) gains (1-p)/4;
  // S2 (votes leFauve, N=3) loses p_leFauve/3.
  const ItemId o3 = *db_.FindItem("Inside Out");
  const ClaimIndex docter = *db_.FindClaim(o3, "Docter");
  const ClaimIndex lefauve = *db_.FindClaim(o3, "leFauve");
  const AccuracyDeltas deltas = Deltas(o3, docter);
  ASSERT_EQ(deltas.voters.size(), 2u);
  const SourceId s3 = *db_.FindSource("S3");
  const SourceId s2 = *db_.FindSource("S2");
  EXPECT_NEAR(deltas.delta[s3], (1.0 - fusion_.prob(o3, docter)) / 4.0,
              1e-12);
  EXPECT_NEAR(deltas.delta[s2], -fusion_.prob(o3, lefauve) / 3.0, 1e-12);
}

TEST_F(ApproxMeuTest, AccuracyDeltasOnlyTouchVoters) {
  const ItemId dory = *db_.FindItem("Finding Dory");
  const AccuracyDeltas deltas = Deltas(dory, 0);
  ASSERT_EQ(deltas.voters, std::vector<SourceId>{*db_.FindSource("S4")});
  for (SourceId s = 0; s < db_.num_sources(); ++s) {
    if (s == deltas.voters.front()) continue;
    EXPECT_EQ(deltas.delta[s], 0.0) << "source " << s;
    EXPECT_EQ(deltas.g_weight[s], 0.0) << "source " << s;
  }
}

TEST_F(ApproxMeuTest, FastAndLiteralEstimatesAgree) {
  // The closed form dp_r = p_r (g(r) - sum_v p_v g(v)) must match the
  // literal Eq. (10) ratio-of-products implementation.
  for (ItemId validated = 0; validated < db_.num_items(); ++validated) {
    for (ClaimIndex t = 0; t < db_.num_claims(validated); ++t) {
      const AccuracyDeltas deltas = Deltas(validated, t);
      for (ItemId j = 0; j < db_.num_items(); ++j) {
        if (j == validated) continue;
        const auto fast = Estimate(j, deltas);
        const auto literal =
            EstimateUpdatedProbsLiteral(db_, fusion_, j, deltas);
        ASSERT_EQ(fast.size(), literal.size());
        for (std::size_t k = 0; k < fast.size(); ++k) {
          EXPECT_NEAR(fast[k], literal[k], 1e-6)
              << "validated=" << validated << " t=" << t << " j=" << j
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(ApproxMeuTest, FirstOrderChangesSumToZero) {
  // dp over an item's claims cancels: distributions stay normalized to
  // first order (before clamping).
  const ItemId o5 = *db_.FindItem("Minions");
  const AccuracyDeltas deltas = Deltas(o5, 0);
  for (ItemId j = 0; j < db_.num_items(); ++j) {
    if (j == o5 || db_.num_claims(j) < 2) continue;
    const auto updated = Estimate(j, deltas);
    double before = 0.0, after = 0.0;
    for (ClaimIndex k = 0; k < db_.num_claims(j); ++k) {
      before += fusion_.prob(j, k);
      after += updated[k];
    }
    // Clamping can only bite when a probability leaves [0,1].
    EXPECT_NEAR(after, before, 0.05) << "item " << j;
  }
}

TEST_F(ApproxMeuTest, RewardedSourceClaimGainsProbability) {
  // Validating Howard on Zootopia rewards S2; S2's claim on Minions
  // (Renaud) must gain estimated probability.
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const ClaimIndex howard = *db_.FindClaim(zootopia, "Howard");
  const AccuracyDeltas deltas = Deltas(zootopia, howard);
  const ItemId minions = *db_.FindItem("Minions");
  const ClaimIndex renaud = *db_.FindClaim(minions, "Renaud");
  const auto updated = Estimate(minions, deltas);
  EXPECT_GT(updated[renaud], fusion_.prob(minions, renaud));
}

TEST_F(ApproxMeuTest, UnaffectedItemUnchanged) {
  // Validating Finding Dory (voter S4) cannot move Minions (voters S1, S2).
  const ItemId dory = *db_.FindItem("Finding Dory");
  const AccuracyDeltas deltas = Deltas(dory, 0);
  const ItemId minions = *db_.FindItem("Minions");
  const auto updated = Estimate(minions, deltas);
  for (ClaimIndex k = 0; k < db_.num_claims(minions); ++k) {
    EXPECT_DOUBLE_EQ(updated[k], fusion_.prob(minions, k));
  }
}

TEST_F(ApproxMeuTest, EstimatesAreClampedProbabilities) {
  for (ItemId validated = 0; validated < db_.num_items(); ++validated) {
    for (ClaimIndex t = 0; t < db_.num_claims(validated); ++t) {
      const AccuracyDeltas deltas = Deltas(validated, t);
      for (ItemId j = 0; j < db_.num_items(); ++j) {
        if (j == validated) continue;
        for (double p : Estimate(j, deltas)) {
          EXPECT_GE(p, 0.0);
          EXPECT_LE(p, 1.0);
        }
      }
    }
  }
}

TEST_F(ApproxMeuTest, SingletonValidationIsNeutral) {
  // Mirrors the MEU invariant: "validating" the already-certain O4 has an
  // expected entropy equal to the current one (its deltas are all zero
  // because 1 - p = 0).
  const ItemId dory = *db_.FindItem("Finding Dory");
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, dory, nullptr);
  EXPECT_NEAR(expected, fusion_.TotalEntropy(), 1e-9);
}

TEST_F(ApproxMeuTest, PrefersWellConnectedDisputedItems) {
  // §1.1's motivation: validating Minions (disputed, touches most items via
  // S1/S2) beats validating nothing-at-stake items. The strategy must pick
  // a maximally disputed item, never O4.
  ApproxMeuStrategy strategy;
  const ItemId pick = strategy.SelectNext(ctx_);
  EXPECT_NE(pick, *db_.FindItem("Finding Dory"));
  EXPECT_TRUE(db_.HasConflict(pick));
}

TEST_F(ApproxMeuTest, ImpactFilterRestrictsPropagation) {
  // With an impact filter selecting nothing, only the validated item's own
  // entropy is considered.
  const ItemId o5 = *db_.FindItem("Minions");
  std::vector<bool> nothing(db_.num_items(), false);
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, o5, &nothing);
  EXPECT_NEAR(expected, fusion_.TotalEntropy() - fusion_.ItemEntropy(o5),
              1e-9);
}

TEST_F(ApproxMeuTest, ScoreCandidatesMatchesPerItemComputation) {
  const std::vector<ItemId> candidates = {0, 1, 2, 3, 4, 5};
  const auto scores =
      ApproxMeuStrategy::ScoreCandidates(ctx_, candidates, nullptr);
  ASSERT_EQ(scores.size(), candidates.size());
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const double expected =
        fusion_.TotalEntropy() -
        ApproxMeuStrategy::ExpectedEntropyAfterValidation(
            ctx_, candidates[idx], nullptr);
    EXPECT_NEAR(scores[idx], expected, 1e-9);
  }
}

TEST_F(ApproxMeuTest, PinnedNeighborsDoNotMove) {
  // A validated (pinned) neighbour's entropy contribution must not change.
  const ItemId minions = *db_.FindItem("Minions");
  ASSERT_TRUE(priors_.SetExact(db_, minions, 0).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  // Validate Zootopia=Howard; Minions is a neighbour via S2 but is pinned.
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, zootopia, nullptr);
  // Recompute manually excluding the pinned item from the impact set.
  std::vector<bool> filter(db_.num_items(), true);
  filter[minions] = false;
  const double filtered = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, zootopia, &filter);
  EXPECT_NEAR(expected, filtered, 1e-12);
}

TEST_F(ApproxMeuTest, TheoremDecayOneHopSmallerThanValidated) {
  // Theorem 4.1 sanity check on synthetic dense data: the average absolute
  // first-order change of neighbours is much smaller than the change of the
  // validated item itself.
  DenseConfig config;
  config.num_items = 80;
  config.num_sources = 12;
  config.density = 0.6;
  config.seed = 3;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion model;
  const FusionResult fusion = model.Fuse(data.db, FusionOptions{});
  const CompiledDatabase compiled(data.db);

  double max_neighbor_change = 0.0;
  double validated_change = 0.0;
  const ItemId target = data.db.ConflictingItems().front();
  const ClaimIndex t = fusion.WinningClaim(target) == 0 ? 1 : 0;
  validated_change = 1.0 - fusion.prob(target, t);
  AccuracyDeltas deltas;
  ComputeAccuracyDeltas(compiled, fusion, target, t, &deltas);
  std::vector<double> updated;
  for (ItemId j = 0; j < data.db.num_items(); ++j) {
    if (j == target) continue;
    EstimateUpdatedProbs(compiled, fusion, j, deltas, &updated);
    for (ClaimIndex k = 0; k < data.db.num_claims(j); ++k) {
      max_neighbor_change = std::max(
          max_neighbor_change, std::fabs(updated[k] - fusion.prob(j, k)));
    }
  }
  EXPECT_LT(max_neighbor_change, validated_change);
}

TEST_F(ApproxMeuTest, Name) {
  EXPECT_EQ(ApproxMeuStrategy().name(), "approx_meu");
}

}  // namespace
}  // namespace veritas
