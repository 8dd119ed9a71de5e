// Tests of the Strategy base helpers: candidate enumeration, top-k
// selection (and CandidateScan's near-tie step), vote entropy, and the
// Random baseline.
#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/candidate_scan.h"
#include "core/random_strategy.h"
#include "data/example_data.h"
#include "fusion/accu.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace veritas {
namespace {

class StrategyHelpersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.compiled = &compiled_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.rng = &rng_;
  }

  Database db_ = MakeMovieDatabase();
  CompiledDatabase compiled_{db_};
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  Rng rng_{1};
  StrategyContext ctx_;
};

TEST_F(StrategyHelpersTest, CandidatesExcludeSingletonsByDefault) {
  const auto candidates = CandidateItems(ctx_);
  EXPECT_EQ(candidates.size(), 5u);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(),
                       *db_.FindItem("Finding Dory")),
            0);
}

TEST_F(StrategyHelpersTest, CandidatesIncludeSingletonsWhenAsked) {
  ctx_.include_singletons = true;
  EXPECT_EQ(CandidateItems(ctx_).size(), 6u);
}

TEST_F(StrategyHelpersTest, CandidatesExcludeValidated) {
  ASSERT_TRUE(priors_.SetExact(db_, *db_.FindItem("Minions"), 0).ok());
  const auto candidates = CandidateItems(ctx_);
  EXPECT_EQ(candidates.size(), 4u);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(),
                       *db_.FindItem("Minions")),
            0);
}

TEST_F(StrategyHelpersTest, CandidatesEmptyWhenAllValidated) {
  for (ItemId i : db_.ConflictingItems()) {
    ASSERT_TRUE(priors_.SetExact(db_, i, 0).ok());
  }
  EXPECT_TRUE(CandidateItems(ctx_).empty());
}

TEST(TopKByScoreTest, OrdersDescending) {
  const std::vector<ItemId> items = {10, 20, 30};
  const std::vector<double> scores = {0.5, 2.0, 1.0};
  EXPECT_EQ(TopKByScore(items, scores, 3),
            (std::vector<ItemId>{20, 30, 10}));
}

TEST(TopKByScoreTest, TruncatesToK) {
  const std::vector<ItemId> items = {1, 2, 3, 4};
  const std::vector<double> scores = {4, 3, 2, 1};
  EXPECT_EQ(TopKByScore(items, scores, 2), (std::vector<ItemId>{1, 2}));
}

TEST(TopKByScoreTest, TiesBrokenByLowerItemId) {
  const std::vector<ItemId> items = {9, 3, 7};
  const std::vector<double> scores = {1.0, 1.0, 1.0};
  EXPECT_EQ(TopKByScore(items, scores, 3), (std::vector<ItemId>{3, 7, 9}));
}

TEST(TopKByScoreTest, KLargerThanInput) {
  const std::vector<ItemId> items = {1};
  const std::vector<double> scores = {0.0};
  EXPECT_EQ(TopKByScore(items, scores, 10), (std::vector<ItemId>{1}));
}

TEST(TopKByScoreTest, EmptyInput) {
  EXPECT_TRUE(TopKByScore({}, {}, 3).empty());
}

// CandidateScan::SelectTopK's near-tie step, on gains built to tie.
TEST(NearTieSelectTest, CanonicalGainBreaksAFastNearTie) {
  // 7 and 3 tie canonically; the fast path puts 7 ahead by 2e-12.
  const std::vector<ItemId> items = {7, 3, 9, 5};
  const std::vector<double> canonical = {0.5, 0.5, 0.2, 0.499};
  const std::vector<double> fast = {0.5 + 1e-12, 0.5 - 1e-12, 0.2, 0.499};
  const CandidateScan::CanonicalScorer rescore = [&](std::size_t idx) {
    return canonical[idx];
  };
  Counter* rescored =
      MetricsRegistry::Global().GetCounter("scan.near_tie_rescored");
  const std::uint64_t before = rescored->value();
  EXPECT_EQ(TopKByScore(items, fast, 1), (std::vector<ItemId>{7}));
  EXPECT_EQ(CandidateScan::SelectTopK(items, fast, 1, rescore, nullptr),
            (std::vector<ItemId>{3}));
  EXPECT_EQ(CandidateScan::SelectTopK(items, fast, 2, rescore, nullptr),
            (std::vector<ItemId>{3, 7}));
  EXPECT_EQ(rescored->value(), before + 4);
  // Without a canonical scorer the step is plain TopKByScore.
  EXPECT_EQ(CandidateScan::SelectTopK(items, fast, 1, nullptr, nullptr),
            (std::vector<ItemId>{7}));
}

TEST(NearTieSelectTest, LoneLeaderAndHardStopSkipTheCanonicalScorer) {
  const std::vector<ItemId> items = {4, 8, 2};
  const std::vector<double> gains = {0.3, 0.9, 0.6};
  std::size_t calls = 0;
  const CandidateScan::CanonicalScorer rescore = [&](std::size_t idx) {
    ++calls;
    return gains[idx];
  };
  EXPECT_EQ(CandidateScan::SelectTopK(items, gains, 1, rescore, nullptr),
            (std::vector<ItemId>{8}));
  EXPECT_EQ(calls, 0u);
  // k = 2 puts the 2nd and the 1st best in the window: both re-scored.
  EXPECT_EQ(CandidateScan::SelectTopK(items, gains, 2, rescore, nullptr),
            (std::vector<ItemId>{8, 2}));
  EXPECT_EQ(calls, 2u);
  // A hard stop leaves the (discarded) round's gains unscored: all equal,
  // all in the window, and none may cost a canonical re-score.
  CancellationToken cancel;
  cancel.RequestHardStop();
  const std::vector<double> zeros(items.size(), 0.0);
  EXPECT_EQ(CandidateScan::SelectTopK(items, zeros, 1, rescore, &cancel),
            (std::vector<ItemId>{2}));
  EXPECT_EQ(calls, 2u);
}

TEST(NearTieSelectTest, HalfWindowPerturbationsKeepTheCanonicalTopK) {
  // Forty candidates on five gain levels, so exact canonical ties abound;
  // every fast gain is off by up to half the window. Plain TopKByScore
  // reorders the ties; the near-tie step must not.
  Rng rng(17);
  std::vector<ItemId> items;
  std::vector<double> canonical;
  for (ItemId i = 0; i < 40; ++i) {
    items.push_back((i * 7) % 40);
    canonical.push_back(0.25 * static_cast<double>(1 + rng.UniformIndex(5)));
  }
  const double half = CandidateScan::kNearTieRel / 2.0;
  const CandidateScan::CanonicalScorer rescore = [&](std::size_t idx) {
    return canonical[idx];
  };
  std::size_t plain_mismatches = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> fast(items.size());
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      fast[idx] = canonical[idx] +
                  rng.Uniform(-1.0, 1.0) * half *
                      std::max(std::fabs(canonical[idx]),
                               CandidateScan::kNearTieFloor);
    }
    for (std::size_t k = 1; k <= 6; ++k) {
      const std::vector<ItemId> want = TopKByScore(items, canonical, k);
      EXPECT_EQ(CandidateScan::SelectTopK(items, fast, k, rescore, nullptr),
                want)
          << "trial " << trial << " k=" << k;
      if (TopKByScore(items, fast, k) != want) ++plain_mismatches;
    }
  }
  EXPECT_GT(plain_mismatches, 0u);
}

TEST_F(StrategyHelpersTest, VoteEntropyMatchesExample41) {
  // H_1 = 0.637 (1/3 vs 2/3), H_2 = 0.693 (1/2 vs 1/2).
  EXPECT_NEAR(VoteEntropy(compiled_, *db_.FindItem("Zootopia")), 0.637, 5e-4);
  EXPECT_NEAR(VoteEntropy(compiled_, *db_.FindItem("Kung Fu Panda")), 0.693, 5e-4);
  EXPECT_DOUBLE_EQ(VoteEntropy(compiled_, *db_.FindItem("Finding Dory")), 0.0);
}

TEST_F(StrategyHelpersTest, SelectNextReturnsFirstOfBatch) {
  RandomStrategy strategy;
  const std::vector<ItemId> batch = strategy.SelectBatch(ctx_, 3);
  ASSERT_FALSE(batch.empty());
  // SelectNext uses a fresh draw, so just verify it returns a candidate.
  const ItemId next = strategy.SelectNext(ctx_);
  EXPECT_NE(next, kInvalidItem);
  EXPECT_FALSE(priors_.Has(next));
}

TEST_F(StrategyHelpersTest, RandomReturnsDistinctCandidates) {
  RandomStrategy strategy;
  const std::vector<ItemId> batch = strategy.SelectBatch(ctx_, 5);
  EXPECT_EQ(batch.size(), 5u);
  const std::set<ItemId> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

TEST_F(StrategyHelpersTest, RandomRespectsBatchSize) {
  RandomStrategy strategy;
  EXPECT_EQ(strategy.SelectBatch(ctx_, 2).size(), 2u);
}

TEST_F(StrategyHelpersTest, RandomIsSeedDeterministic) {
  RandomStrategy strategy;
  Rng rng_a(5), rng_b(5);
  ctx_.rng = &rng_a;
  const auto a = strategy.SelectBatch(ctx_, 3);
  ctx_.rng = &rng_b;
  const auto b = strategy.SelectBatch(ctx_, 3);
  EXPECT_EQ(a, b);
}

TEST_F(StrategyHelpersTest, RandomExhaustsCandidates) {
  RandomStrategy strategy;
  for (ItemId i : db_.ConflictingItems()) {
    ASSERT_TRUE(priors_.SetExact(db_, i, 0).ok());
  }
  EXPECT_TRUE(strategy.SelectBatch(ctx_, 1).empty());
  EXPECT_EQ(strategy.SelectNext(ctx_), kInvalidItem);
}

TEST(RandomStrategyTest, Name) { EXPECT_EQ(RandomStrategy().name(), "random"); }

}  // namespace
}  // namespace veritas
