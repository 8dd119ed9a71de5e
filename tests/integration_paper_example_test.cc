// Golden tests replaying the paper's worked example end to end:
// Table 1 (input), Table 3 (fusion output), Examples 4.1/4.2 (QBC/US
// choices), Table 6 invariants (MEU) and Table 9 behaviour (Approx-MEU).
// EXPERIMENTS.md records where our decimals deviate and why.
#include <gtest/gtest.h>

#include "core/approx_meu.h"
#include "core/gub.h"
#include "core/meu.h"
#include "core/metrics.h"
#include "core/qbc.h"
#include "core/session.h"
#include "core/us.h"
#include "data/example_data.h"
#include "fusion/accu.h"
#include "model/item_graph.h"

namespace veritas {
namespace {

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.ground_truth = &truth_;
    ctx_.include_singletons = true;
    ctx_.warm_start_lookahead = false;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  GroundTruth truth_ = MakeMovieGroundTruth(db_);
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;
};

TEST_F(PaperExampleTest, Table3FullComparison) {
  // Every probability of Table 3, within 0.01.
  struct Row {
    const char* item;
    const char* claim;
    double prob;
  };
  const Row rows[] = {
      {"Zootopia", "Howard", 0.0},      {"Zootopia", "Spencer", 1.0},
      {"Kung Fu Panda", "Stevenson", 0.015},
      {"Kung Fu Panda", "Nelson", 0.985},
      {"Inside Out", "Docter", 0.999},  {"Inside Out", "leFauve", 0.001},
      {"Finding Dory", "Stanton", 1.0}, {"Minions", "Coffin", 0.921},
      {"Minions", "Renaud", 0.079},     {"Rio", "Saldanha", 0.985},
      {"Rio", "Jones", 0.015},
  };
  for (const Row& row : rows) {
    const ItemId item = *db_.FindItem(row.item);
    const ClaimIndex claim = *db_.FindClaim(item, row.claim);
    EXPECT_NEAR(fusion_.prob(item, claim), row.prob, 0.011)
        << row.item << " / " << row.claim;
  }
}

TEST_F(PaperExampleTest, MotivationValidatingZootopiaImpactsAllItems) {
  // §1.1: "validating Zootopia would impact all other items" — one-hop
  // neighbourhood covers the whole database.
  const ItemGraph graph(db_);
  std::vector<ItemId> neighbors;
  graph.CollectNeighbors(*db_.FindItem("Zootopia"), &neighbors);
  EXPECT_EQ(neighbors.size(), 5u);
  // "...validating Finding Dory would influence only Zootopia."
  graph.CollectNeighbors(*db_.FindItem("Finding Dory"), &neighbors);
  EXPECT_EQ(neighbors.size(), 1u);
}

TEST_F(PaperExampleTest, Example41QbcPrefersKungFuPandaOverZootopia) {
  QbcStrategy qbc;
  const auto order = qbc.SelectBatch(ctx_, 6);
  const auto position = [&](const char* name) {
    const ItemId id = *db_.FindItem(name);
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(position("Kung Fu Panda"), position("Zootopia"));
}

TEST_F(PaperExampleTest, Example42UsSelectsMinions) {
  UsStrategy us;
  ctx_.include_singletons = false;
  EXPECT_EQ(us.SelectNext(ctx_), *db_.FindItem("Minions"));
}

TEST_F(PaperExampleTest, Example43CurrentEntropyNear0437) {
  EXPECT_NEAR(fusion_.TotalEntropy(), 0.437, 0.02);
}

TEST_F(PaperExampleTest, Table6SingletonGainIsExactlyZero) {
  // MEU's EU*(O4) equals EU(D, F): validating the already-certain item is
  // a no-op (the paper's chosen action has utility gain exactly 0).
  const double eu4 = MeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, *db_.FindItem("Finding Dory"));
  EXPECT_NEAR(eu4, fusion_.TotalEntropy(), 1e-9);
}

TEST_F(PaperExampleTest, Table6MinionsHasHighestExpectedEntropy) {
  // Table 6: EU*(O5) = 1.342 is by far the largest expected entropy —
  // Minions is maximally uncertain (0.921/0.079) and both its branches
  // disturb the system. Must hold under our schedule too.
  double minions_eu = MeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, *db_.FindItem("Minions"));
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    if (i == *db_.FindItem("Minions")) continue;
    EXPECT_GT(minions_eu,
              MeuStrategy::ExpectedEntropyAfterValidation(ctx_, i) - 1e-9)
        << "item " << i;
  }
}

TEST_F(PaperExampleTest, Table9ApproxSingletonNeutral) {
  const double eu4 = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, *db_.FindItem("Finding Dory"), nullptr);
  EXPECT_NEAR(eu4, fusion_.TotalEntropy(), 1e-9);
}

TEST_F(PaperExampleTest, Table9ApproxPrefersDisputedConnectedItems) {
  // Table 9 ranks O2 and O5 as the two best actions (EU* 0.184 and 0.235).
  // Our differential estimate agrees that the best action is one of the
  // maximally disputed items O2/O5/O6, never O1/O3/O4.
  ApproxMeuStrategy approx;
  const ItemId pick = approx.SelectNext(ctx_);
  const ItemId o2 = *db_.FindItem("Kung Fu Panda");
  const ItemId o5 = *db_.FindItem("Minions");
  const ItemId o6 = *db_.FindItem("Rio");
  EXPECT_TRUE(pick == o2 || pick == o5 || pick == o6)
      << "picked " << db_.item(pick).name;
}

TEST_F(PaperExampleTest, IntroValidatingHowardFlipsZootopia) {
  // §1.1: after validating that Howard is correct, the system reconsiders
  // claims by S2, S3, S4.
  PriorSet feedback;
  const ItemId zootopia = *db_.FindItem("Zootopia");
  ASSERT_TRUE(
      feedback.SetExact(db_, zootopia, *db_.FindClaim(zootopia, "Howard"))
          .ok());
  const FusionResult after = model_.Fuse(db_, feedback, opts_);
  // S2 is now more trusted; leFauve (S2's claim on Inside Out) gains.
  const ItemId o3 = *db_.FindItem("Inside Out");
  EXPECT_GT(after.prob(o3, *db_.FindClaim(o3, "leFauve")),
            fusion_.prob(o3, *db_.FindClaim(o3, "leFauve")));
  // S3 and S4, who voted Spencer, lose trust.
  EXPECT_LT(after.accuracy(*db_.FindSource("S3")),
            fusion_.accuracy(*db_.FindSource("S3")));
  EXPECT_LT(after.accuracy(*db_.FindSource("S4")),
            fusion_.accuracy(*db_.FindSource("S4")));
}

TEST_F(PaperExampleTest, FullValidationSequenceReachesTruth) {
  // Whatever the strategy, validating all 5 conflicting items with perfect
  // feedback ends at distance 0 — here with GUB, the paper's gold standard.
  GubStrategy gub;
  PerfectOracle oracle;
  SessionOptions options;
  options.fusion = opts_;
  Rng rng(1);
  FeedbackSession session(db_, model_, &gub, &oracle, truth_, options, &rng);
  const auto trace = session.Run();
  ASSERT_TRUE(trace.ok());
  EXPECT_NEAR(trace->steps.back().distance, 0.0, 1e-9);
}

TEST_F(PaperExampleTest, GubFirstPickIsTheManualArgmax) {
  GubStrategy gub;
  ctx_.include_singletons = false;
  const ItemId pick = gub.SelectNext(ctx_);
  // Recompute every candidate's ground-truth-utility gain by hand and
  // verify GUB selected the argmax. (On this adversarial example every
  // single validation can have negative global gain — GUB still picks the
  // least harmful one.)
  const double current = GroundTruthUtility(fusion_, truth_);
  double best_gain = -1e300;
  ItemId best_item = kInvalidItem;
  for (ItemId i : db_.ConflictingItems()) {
    PriorSet pinned;
    ASSERT_TRUE(pinned.SetExact(db_, i, truth_.TrueClaim(i)).ok());
    const FusionResult r = model_.Fuse(db_, pinned, opts_);
    const double gain = GroundTruthUtility(r, truth_) - current;
    if (gain > best_gain) {
      best_gain = gain;
      best_item = i;
    }
  }
  EXPECT_EQ(pick, best_item) << "picked " << db_.item(pick).name
                             << ", manual argmax "
                             << db_.item(best_item).name;
}

}  // namespace
}  // namespace veritas
