// Tests of the item-level ranking strategies QBC (§4.1.1) and US (§4.1.2).
#include <gtest/gtest.h>

#include "core/qbc.h"
#include "core/us.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class ItemLevelStrategyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  StrategyContext ctx_;
};

TEST_F(ItemLevelStrategyTest, QbcPrefersMaximallyDisputedItems) {
  // Example 4.1: QBC validates O2 (vote entropy 0.693) before O1 (0.637).
  QbcStrategy qbc;
  const auto order = qbc.SelectBatch(ctx_, 5);
  ASSERT_EQ(order.size(), 5u);
  // All 0.693-entropy items (O2, O3, O5, O6) precede O1.
  EXPECT_EQ(order.back(), *db_.FindItem("Zootopia"));
  const ItemId o2 = *db_.FindItem("Kung Fu Panda");
  EXPECT_LT(std::find(order.begin(), order.end(), o2) - order.begin(), 4);
}

TEST_F(ItemLevelStrategyTest, QbcNeverPicksSingleton) {
  QbcStrategy qbc;
  const auto order = qbc.SelectBatch(ctx_, 10);
  for (ItemId i : order) EXPECT_TRUE(db_.HasConflict(i));
}

TEST_F(ItemLevelStrategyTest, QbcSkipsValidatedItems) {
  QbcStrategy qbc;
  const ItemId first = qbc.SelectNext(ctx_);
  ASSERT_TRUE(priors_.SetExact(db_, first, 0).ok());
  const ItemId second = qbc.SelectNext(ctx_);
  EXPECT_NE(second, first);
}

TEST_F(ItemLevelStrategyTest, QbcOrderIsStableAcrossFusionChanges) {
  // QBC ignores fusion output: changing the fusion result must not change
  // its ranking (§4.1.1).
  QbcStrategy qbc;
  const auto before = qbc.SelectBatch(ctx_, 5);
  PriorSet pinned;
  ASSERT_TRUE(pinned.SetExact(db_, *db_.FindItem("Zootopia"), 0).ok());
  FusionResult other = model_.Fuse(db_, pinned, opts_);
  ctx_.fusion = &other;
  const auto after = qbc.SelectBatch(ctx_, 5);
  EXPECT_EQ(before, after);
}

TEST_F(ItemLevelStrategyTest, QbcCacheInvalidatedAcrossDatabases) {
  // Reusing one strategy instance against a different database must not
  // replay the previous database's ranking.
  QbcStrategy qbc;
  ASSERT_NE(qbc.SelectNext(ctx_), kInvalidItem);

  DenseConfig config;
  config.num_items = 30;
  config.num_sources = 6;
  config.density = 0.5;
  config.seed = 99;
  const SyntheticDataset other = GenerateDense(config);
  FusionResult other_fusion = model_.Fuse(other.db, opts_);
  PriorSet other_priors;
  const CompiledDatabase other_compiled(other.db);
  StrategyContext other_ctx = ctx_;
  other_ctx.compiled = &other_compiled;
  other_ctx.fusion = &other_fusion;
  other_ctx.priors = &other_priors;
  const auto batch = qbc.SelectBatch(other_ctx, 5);
  for (ItemId i : batch) {
    EXPECT_LT(i, other.db.num_items());
    EXPECT_TRUE(other.db.HasConflict(i));
  }
}

TEST_F(ItemLevelStrategyTest, QbcResetClearsCache) {
  QbcStrategy qbc;
  const auto a = qbc.SelectBatch(ctx_, 5);
  qbc.Reset();
  const auto b = qbc.SelectBatch(ctx_, 5);
  EXPECT_EQ(a, b);  // Deterministic rebuild.
}

TEST_F(ItemLevelStrategyTest, UsPicksMinionsLikeExample42) {
  // Example 4.2: O5 has the highest output entropy, US validates it first.
  UsStrategy us;
  EXPECT_EQ(us.SelectNext(ctx_), *db_.FindItem("Minions"));
}

TEST_F(ItemLevelStrategyTest, UsOrdersByOutputEntropy) {
  UsStrategy us;
  const auto order = us.SelectBatch(ctx_, 5);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(fusion_.ItemEntropy(order[i - 1]),
              fusion_.ItemEntropy(order[i]) - 1e-12);
  }
}

TEST_F(ItemLevelStrategyTest, UsReactsToFusionChanges) {
  // Unlike QBC, US re-ranks when the fusion output changes: pin O5 and its
  // entropy drops to zero, so US must pick a different item.
  UsStrategy us;
  const ItemId minions = *db_.FindItem("Minions");
  ASSERT_EQ(us.SelectNext(ctx_), minions);
  ASSERT_TRUE(priors_.SetExact(db_, minions, 0).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  EXPECT_NE(us.SelectNext(ctx_), minions);
}

TEST_F(ItemLevelStrategyTest, Names) {
  EXPECT_EQ(QbcStrategy().name(), "qbc");
  EXPECT_EQ(UsStrategy().name(), "us");
}

// Property sweep over synthetic datasets: both item-level strategies always
// return unvalidated, conflicting, distinct items.
class ItemLevelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ItemLevelPropertyTest, SelectionsAreSane) {
  DenseConfig config;
  config.num_items = 60;
  config.num_sources = 10;
  config.density = 0.5;
  config.seed = GetParam();
  const SyntheticDataset data = GenerateDense(config);

  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const FusionResult fusion = model.Fuse(data.db, priors, opts);
  const CompiledDatabase compiled(data.db);
  StrategyContext ctx;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;

  QbcStrategy qbc;
  UsStrategy us;
  for (Strategy* s : std::initializer_list<Strategy*>{&qbc, &us}) {
    const auto batch = s->SelectBatch(ctx, 10);
    std::set<ItemId> seen;
    for (ItemId i : batch) {
      EXPECT_TRUE(data.db.HasConflict(i)) << s->name();
      EXPECT_FALSE(priors.Has(i)) << s->name();
      EXPECT_TRUE(seen.insert(i).second) << s->name() << " duplicated " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemLevelPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace veritas
