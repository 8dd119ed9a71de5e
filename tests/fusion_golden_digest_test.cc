// Golden digests: every fusion model's output pinned bit for bit.
//
// Each digest folds the IEEE-754 bit pattern of every claim probability and
// source accuracy, plus the iteration count, of three runs per dataset: a
// cold Fuse, a cold Fuse with two pinned items (one exact, one
// distribution), and the same pinned Fuse warm-started from the cold result.
// Two DatasetSpec seeds (one dense, one long-tail) feed each model. A refactor
// of a model's data path that reorders a single floating-point sum changes
// its digest; so does a change of FusionResult's layout that leaks into the
// checkpoint bytes, pinned separately below.
//
// The pins were computed with glibc's libm on x86-64; another libm may
// round exp/log differently and needs its own pins.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/session.h"
#include "core/session_checkpoint.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/fusion_factory.h"
#include "test_dir.h"

namespace veritas {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Mix(double v) { Mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void MixResult(const Database& db, const FusionResult& r, Digest* d) {
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ClaimIndex k = 0; k < db.num_claims(i); ++k) d->Mix(r.prob(i, k));
  }
  for (double a : r.accuracies()) d->Mix(a);
  d->Mix(static_cast<std::uint64_t>(r.iterations()));
}

SyntheticDataset Dataset(bool dense) {
  DatasetSpec spec;
  if (dense) {
    spec.shape = "dense";
    spec.num_items = 120;
    spec.num_sources = 20;
    spec.seed = 7;
    spec.params["density"] = "0.4";
  } else {
    spec.shape = "longtail";
    spec.num_items = 200;
    spec.num_sources = 60;
    spec.seed = 11;
  }
  Result<SyntheticDataset> data = GenerateFromSpec(spec);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

// Two pins on the first two conflicting items: claim 1 exact, and a
// distribution weighting claim k by k + 1.
PriorSet TwoPins(const Database& db) {
  PriorSet priors;
  const std::vector<ItemId> conflicts = db.ConflictingItems();
  EXPECT_GE(conflicts.size(), 2u);
  EXPECT_TRUE(priors.SetExact(db, conflicts[0], 1).ok());
  const std::size_t n = db.num_claims(conflicts[1]);
  std::vector<double> dist(n);
  const double total = static_cast<double>(n * (n + 1) / 2);
  for (std::size_t k = 0; k < n; ++k) {
    dist[k] = static_cast<double>(k + 1) / total;
  }
  EXPECT_TRUE(priors.SetDistribution(db, conflicts[1], dist).ok());
  return priors;
}

struct GoldenCase {
  const char* model;
  std::uint64_t digest;

  friend std::ostream& operator<<(std::ostream& os, const GoldenCase& c) {
    return os << c.model;
  }
};

class FusionGoldenDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FusionGoldenDigestTest, OutputMatchesPinnedBits) {
  auto model = MakeFusionModel(GetParam().model);
  ASSERT_TRUE(model.ok());
  const FusionOptions opts;
  Digest d;
  for (bool dense : {true, false}) {
    const SyntheticDataset data = Dataset(dense);
    const PriorSet pins = TwoPins(data.db);
    const FusionResult cold = (*model)->Fuse(data.db, PriorSet(), opts);
    const FusionResult pinned = (*model)->Fuse(data.db, pins, opts);
    const FusionResult warm = (*model)->Fuse(data.db, pins, opts, &cold);
    MixResult(data.db, cold, &d);
    MixResult(data.db, pinned, &d);
    MixResult(data.db, warm, &d);
  }
  EXPECT_EQ(d.value(), GetParam().digest)
      << GetParam().model << " digest 0x" << std::hex << d.value();
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, FusionGoldenDigestTest,
    ::testing::Values(GoldenCase{"accu", 0x56c6d56fe15acc76ULL},
                      GoldenCase{"accu_copy", 0x285b304c89cc1c3bULL},
                      GoldenCase{"voting", 0xd6c1ce7851b3e473ULL},
                      GoldenCase{"truthfinder", 0x633e6e09896d7c85ULL},
                      GoldenCase{"lca", 0x67f0dd066c52121fULL},
                      GoldenCase{"pooled_investment", 0xadc6622d1955c259ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.model);
    });

// Strategy selections pinned: the items each strategy validates over five
// single-item rounds of a perfect-oracle Accu session on the long-tail
// dataset. GUB, SequentialMEU and MEU without the delta engine fuse every
// lookahead hypothesis as a pinned PriorSet; QBC replays a ranking cached
// across rounds; Approx-MEU and Approx-MEU_k score the differential
// estimate, flat and through the sharded two-stage scan. A change to any of
// these paths that moves one pick fails here.
struct SelectionCase {
  const char* name;
  const char* strategy;
  bool use_delta;
  std::vector<ItemId> picks;
  std::size_t shards = 1;

  friend std::ostream& operator<<(std::ostream& os, const SelectionCase& c) {
    return os << c.name;
  }
};

class StrategySelectionGoldenTest
    : public ::testing::TestWithParam<SelectionCase> {};

TEST_P(StrategySelectionGoldenTest, PicksMatchPinnedSequence) {
  const SelectionCase& c = GetParam();
  auto model = MakeFusionModel("accu");
  ASSERT_TRUE(model.ok());
  auto strategy = MakeStrategy(c.strategy);
  ASSERT_TRUE(strategy.ok());
  const SyntheticDataset data = Dataset(/*dense=*/false);
  PerfectOracle oracle;
  SessionOptions options;
  options.max_validations = 5;
  options.fusion.use_delta_fusion = c.use_delta;
  options.fusion.shards = c.shards;
  FeedbackSession session(data.db, **model, strategy->get(), &oracle,
                          data.truth, options, /*rng=*/nullptr);
  const Result<SessionTrace> trace = session.Run();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<ItemId> picks;
  for (const SessionStep& step : trace->steps) {
    picks.insert(picks.end(), step.items.begin(), step.items.end());
  }
  EXPECT_EQ(picks, c.picks) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    LookaheadAndCachedStrategies, StrategySelectionGoldenTest,
    ::testing::Values(
        SelectionCase{"gub", "gub", true, {106, 199, 135, 139, 140}},
        SelectionCase{"gub_expectation", "gub_expectation", true,
                      {122, 96, 155, 182, 105}},
        SelectionCase{"sequential_meu", "meu2", true,
                      {135, 139, 199, 140, 106}},
        SelectionCase{"meu_no_delta", "meu", false, {135, 199, 139, 140, 176}},
        SelectionCase{"qbc", "qbc", true, {27, 43, 76, 132, 139}},
        SelectionCase{"approx_meu", "approx_meu", true,
                      {135, 199, 139, 140, 176}},
        SelectionCase{"approx_meu_k10", "approx_meu_k:10", true,
                      {139, 76, 106, 123, 196}},
        SelectionCase{"approx_meu_shards3", "approx_meu", true,
                      {135, 199, 139, 140, 176}, /*shards=*/3}),
    [](const ::testing::TestParamInfo<SelectionCase>& info) {
      return std::string(info.param.name);
    });

// The checkpoint codec writes a FusionResult item by item; its bytes must
// not depend on how the result stores its probabilities.
TEST(FusionGoldenCheckpointTest, BytesMatchPinnedDigest) {
  auto model = MakeFusionModel("accu");
  ASSERT_TRUE(model.ok());
  const SyntheticDataset data = Dataset(/*dense=*/false);
  SessionCheckpoint cp;
  cp.num_validated = 2;
  cp.priors = TwoPins(data.db);
  cp.fusion = (*model)->Fuse(data.db, cp.priors, FusionOptions());
  const std::string path = TestPath("golden.ckpt");
  ASSERT_TRUE(SaveSessionCheckpoint(cp, path, /*keep_generations=*/0).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());
  Digest d;
  for (unsigned char c : bytes) d.Mix(static_cast<std::uint64_t>(c));
  EXPECT_EQ(d.value(), 0x8c5e6ad3e6597648ULL)
      << "checkpoint digest 0x" << std::hex << d.value();
}

}  // namespace
}  // namespace veritas
