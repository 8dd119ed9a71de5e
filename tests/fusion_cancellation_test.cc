// Hard-stop contract across every fusion model the factory can build (the
// ISSUE-6 satellite extending the Accu/TruthFinder/Voting semantics to LCA,
// PooledInvestment and AccuCopy): a hard stop bails the iteration loops at
// the next boundary, the partial result is finite but flagged
// converged() == false, and a *graceful* stop is deliberately invisible to
// the fusion layer (round boundaries belong to the session, not the model).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "data/synthetic.h"
#include "fusion/fusion_factory.h"
#include "util/cancellation.h"

namespace veritas {
namespace {

class FusionCancellationTest : public ::testing::TestWithParam<std::string> {
 protected:
  FusionCancellationTest() {
    DenseConfig config;
    config.num_items = 30;
    config.num_sources = 8;
    config.density = 0.5;
    config.seed = 19;
    data_ = GenerateDense(config);
  }
  SyntheticDataset data_;
};

TEST_P(FusionCancellationTest, HardStopBailsFiniteAndNonConverged) {
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok()) << model.status();
  CancellationToken token;
  token.RequestHardStop();
  FusionOptions opts;
  opts.cancel = &token;
  const FusionResult result = (*model)->Fuse(data_.db, PriorSet(), opts);
  EXPECT_FALSE(result.converged());
  EXPECT_TRUE(result.AllFinite());  // Bailed, but never half-written.
  EXPECT_EQ(result.num_items(), data_.db.num_items());
}

TEST_P(FusionCancellationTest, GracefulStopIsInvisibleToFusion) {
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok()) << model.status();
  FusionOptions plain;
  const FusionResult baseline = (*model)->Fuse(data_.db, PriorSet(), plain);

  CancellationToken token;
  token.RequestStop();  // Graceful only; fusion must run to its fixed point.
  FusionOptions opts;
  opts.cancel = &token;
  const FusionResult result = (*model)->Fuse(data_.db, PriorSet(), opts);
  EXPECT_EQ(result.converged(), baseline.converged());
  EXPECT_EQ(result.accuracies(), baseline.accuracies());
  for (ItemId i = 0; i < baseline.num_items(); ++i) {
    EXPECT_TRUE(std::ranges::equal(result.item_probs(i),
                                   baseline.item_probs(i)))
        << "item " << i;
  }
}

TEST_P(FusionCancellationTest, NullTokenRunsToCompletion) {
  auto model = MakeFusionModel(GetParam());
  ASSERT_TRUE(model.ok()) << model.status();
  FusionOptions opts;  // cancel == nullptr.
  const FusionResult result = (*model)->Fuse(data_.db, PriorSet(), opts);
  EXPECT_TRUE(result.AllFinite());
  EXPECT_EQ(result.num_items(), data_.db.num_items());
}

INSTANTIATE_TEST_SUITE_P(AllModels, FusionCancellationTest,
                         ::testing::Values("accu", "accu_copy", "voting",
                                           "truthfinder", "lca",
                                           "pooled_investment"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace veritas
