// Equivalence suite for the pruned MEU lookahead scan and the shared
// CandidateScan kernel (DESIGN.md §5f): selections must be identical to the
// unpruned serial scan for every fusion model and thread count, pruning must
// actually fire, the scan must stay correct across seeded rounds, and every
// lookahead strategy must select the same items at every lane count. Lives
// in the concurrency binary so CI reruns it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_scan.h"
#include "core/hybrid.h"
#include "core/meu.h"
#include "core/strategy.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "fusion/delta_fusion.h"
#include "fusion/truthfinder.h"
#include "fusion/voting.h"
#include "obs/metrics.h"

namespace veritas {
namespace {

std::unique_ptr<FusionModel> MakeModel(const std::string& name) {
  if (name == "voting") return std::make_unique<VotingFusion>();
  if (name == "truthfinder") return std::make_unique<TruthFinderFusion>();
  return std::make_unique<AccuFusion>();
}

// One synthetic dataset + fused state + delta engine per fusion model, with
// a StrategyContext wired the way FeedbackSession wires it (delta path on).
struct ScanFixture {
  explicit ScanFixture(const std::string& model_name, std::uint64_t seed = 47,
                       std::size_t num_items = 80) {
    DenseConfig config;
    config.num_items = num_items;
    config.num_sources = 12;
    config.density = 0.5;
    config.seed = seed;
    data = GenerateDense(config);
    model = MakeModel(model_name);
    fusion = model->Fuse(data.db, priors, opts);
    compiled = std::make_unique<CompiledDatabase>(data.db);
    delta = DeltaFusionEngine::Create(*compiled, *model, opts);
    ctx.compiled = compiled.get();
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = model.get();
    ctx.fusion_opts = &opts;
    ctx.delta = delta.get();
    ctx.ground_truth = &data.truth;
  }

  // Pins `item` to claim 0 and re-fuses, as one feedback round would.
  void Validate(ItemId item) {
    ASSERT_TRUE(priors.SetExact(data.db, item, 0).ok());
    fusion = model->Fuse(data.db, priors, opts, &fusion);
  }

  SyntheticDataset data;
  std::unique_ptr<FusionModel> model;
  FusionOptions opts;
  PriorSet priors;
  FusionResult fusion;
  std::unique_ptr<CompiledDatabase> compiled;
  std::unique_ptr<DeltaFusionEngine> delta;
  StrategyContext ctx;
};

constexpr const char* kModels[] = {"accu", "voting", "truthfinder"};
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

TEST(MeuPrunedParallelTest, SelectionsMatchUnprunedSerialScan) {
  for (const char* model_name : kModels) {
    ScanFixture fx(model_name);
    ASSERT_NE(fx.delta, nullptr) << model_name;

    MeuScanOptions off;
    off.prune = false;
    MeuStrategy reference(1, off);
    const std::vector<ItemId> want = reference.SelectBatch(fx.ctx, 5);
    ASSERT_EQ(want.size(), 5u) << model_name;

    for (const std::size_t threads : kThreadCounts) {
      MeuStrategy pruned(threads);
      EXPECT_EQ(pruned.SelectBatch(fx.ctx, 5), want)
          << model_name << " with " << threads << " thread(s)";
    }
  }
}

TEST(MeuPrunedParallelTest, UnprunedGainsAreBitIdenticalAcrossThreadCounts) {
  // Without pruning every candidate runs the exact same per-candidate
  // arithmetic against the same base state, so the gains must agree to the
  // last bit no matter which lane scored them.
  for (const char* model_name : kModels) {
    ScanFixture fx(model_name);
    const std::vector<ItemId> candidates = CandidateItems(fx.ctx);
    // Enough candidates that the multi-lane scans take the pooled path.
    ASSERT_GE(candidates.size(), CandidateScan::kSerialCutoff) << model_name;

    MeuScanOptions off;
    off.prune = false;
    MeuStrategy serial(1, off);
    const std::vector<double> want =
        serial.ScoreCandidateGains(fx.ctx, candidates, 5, false);

    for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
      MeuStrategy parallel(threads, off);
      const std::vector<double> got =
          parallel.ScoreCandidateGains(fx.ctx, candidates, 5, false);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i], want[i])
            << model_name << " candidate " << candidates[i] << " at "
            << threads << " thread(s)";
      }
    }
  }
}

TEST(MeuPrunedParallelTest, PruningFiresOnTheDeltaPath) {
  ScanFixture fx("accu");
  // Isolate this scan's metrics (Reset keeps cached instrument pointers, so
  // the strategy's statics stay valid).
  MetricsRegistry::Global().Reset();
  MeuStrategy pruned(2);
  ASSERT_NE(pruned.SelectNext(fx.ctx), kInvalidItem);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  // A batch-1 scan over ~80 conflicting items must abandon most of them.
  EXPECT_GT(after.Value("meu.candidates_pruned"), 0.0);
  // The empirical check on the kPruneMarginRel bound: no observed gain may
  // come near the assumed (1 + margin) * H_item ceiling.
  EXPECT_LT(after.Value("meu.max_gain_bound_ratio"),
            1.0 + MeuStrategy::kPruneMarginRel);
}

TEST(MeuPrunedParallelTest, GainBoundMarginHoldsOnEveryModel) {
  // Score every candidate exactly (pruning off) and check the largest
  // observed gain / H_item quotient against the bound the pruner assumes:
  // exactly 1 for Voting (a pin moves nothing else), 1 + kPruneMarginRel
  // for the models with cross-item influence.
  for (const char* model_name : kModels) {
    ScanFixture fx(model_name);
    ASSERT_NE(fx.delta, nullptr) << model_name;
    MetricsRegistry::Global().Reset();
    MeuScanOptions off;
    off.prune = false;
    MeuStrategy exact(1, off);
    const std::vector<ItemId> candidates = CandidateItems(fx.ctx);
    exact.ScoreCandidateGains(fx.ctx, candidates, 5, false);
    const double ratio =
        MetricsRegistry::Global().Snapshot().Value("meu.max_gain_bound_ratio");
    const double ceiling = fx.delta->cross_item_influence()
                               ? 1.0 + MeuStrategy::kPruneMarginRel
                               : 1.0 + 1e-9;
    EXPECT_LT(ratio, ceiling) << model_name;
    EXPECT_GT(ratio, 0.0) << model_name;
  }
}

TEST(MeuPrunedParallelTest, SeededSecondRoundStillMatches) {
  // The cross-round seed ranking reorders the scan; selections must not
  // change. Run three feedback rounds, comparing pruned strategies (which
  // carry their seed state forward) against a fresh unpruned reference.
  for (const char* model_name : kModels) {
    ScanFixture fx(model_name);
    MeuScanOptions off;
    off.prune = false;
    MeuStrategy pruned_1t(1);
    MeuStrategy pruned_4t(4);
    for (int round = 0; round < 3; ++round) {
      MeuStrategy reference(1, off);
      const std::vector<ItemId> want = reference.SelectBatch(fx.ctx, 3);
      ASSERT_FALSE(want.empty()) << model_name << " round " << round;
      EXPECT_EQ(pruned_1t.SelectBatch(fx.ctx, 3), want)
          << model_name << " round " << round;
      EXPECT_EQ(pruned_4t.SelectBatch(fx.ctx, 3), want)
          << model_name << " round " << round;
      fx.Validate(want.front());
    }
  }
}

TEST(MeuPrunedParallelTest, ResetClearsTheSeedRanking) {
  ScanFixture fx("accu");
  MeuStrategy pruned(2);
  const std::vector<ItemId> first = pruned.SelectBatch(fx.ctx, 3);
  pruned.Reset();
  // A reset strategy must reproduce the fresh-strategy scan exactly.
  EXPECT_EQ(pruned.SelectBatch(fx.ctx, 3), first);
}

// Every lookahead strategy runs its candidates through CandidateScan; its
// selections must not depend on the lane count.
//
// gtest lists an unprintable parameter as its raw bytes, and those bytes
// become part of the ctest name. The case therefore holds only plain bytes:
// a std::string member would put a heap address into the name and make it
// change from build to build.
struct LaneCase {
  char strategy[32];
  std::size_t lanes;
};

class LaneInvarianceTest : public ::testing::TestWithParam<LaneCase> {};

TEST_P(LaneInvarianceTest, SelectionsMatchOneLane) {
  const LaneCase& param = GetParam();
  ScanFixture fx("accu", /*seed=*/47, /*num_items=*/160);
  auto reference = MakeStrategy(param.strategy, 1);
  auto strategy = MakeStrategy(param.strategy, param.lanes);
  ASSERT_TRUE(reference.ok() && strategy.ok()) << param.strategy;
  for (int round = 0; round < 2; ++round) {
    // Enough candidates that the multi-lane scan takes the pooled path.
    const std::size_t scanned =
        std::string_view(param.strategy).rfind("approx_meu_k:", 0) == 0
            ? ApproxMeuKStrategy::FilterCandidates(fx.ctx, 50).size()
            : CandidateItems(fx.ctx).size();
    ASSERT_GE(scanned, CandidateScan::kSerialCutoff) << "round " << round;
    const std::vector<ItemId> want = (*reference)->SelectBatch(fx.ctx, 3);
    ASSERT_EQ(want.size(), 3u) << "round " << round;
    EXPECT_EQ((*strategy)->SelectBatch(fx.ctx, 3), want) << "round " << round;
    fx.Validate(want.front());
  }
}

std::vector<LaneCase> LaneCases() {
  std::vector<LaneCase> cases;
  for (const char* strategy : {"meu", "approx_meu", "approx_meu_k:50", "gub"}) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      LaneCase lane_case{};
      std::snprintf(lane_case.strategy, sizeof(lane_case.strategy), "%s",
                    strategy);
      lane_case.lanes = lanes;
      cases.push_back(lane_case);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, LaneInvarianceTest, ::testing::ValuesIn(LaneCases()),
    [](const ::testing::TestParamInfo<LaneCase>& info) {
      std::string name = info.param.strategy;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name + "_" + std::to_string(info.param.lanes) + "lanes";
    });

}  // namespace
}  // namespace veritas
