// Property-based sweeps over the feedback strategies: contracts that every
// strategy must honor on every dataset shape and seed, plus the key
// analytical invariants of the decision-theoretic framework.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/approx_meu.h"
#include "core/candidate_scan.h"
#include "core/hybrid.h"
#include "core/meu.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "util/math.h"

namespace veritas {
namespace {

struct StrategyPropertyCase {
  std::string strategy;
  bool dense;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os,
                                  const StrategyPropertyCase& c) {
    std::string name = c.strategy;
    for (char& ch : name) {
      if (ch == ':') ch = '_';
    }
    return os << name << (c.dense ? "_dense_" : "_longtail_") << c.seed;
  }
};

SyntheticDataset Generate(bool dense, std::uint64_t seed) {
  if (dense) {
    DenseConfig config;
    config.num_items = 90;
    config.num_sources = 12;
    config.density = 0.4;
    config.seed = seed;
    return GenerateDense(config);
  }
  LongTailConfig config;
  config.num_items = 90;
  config.num_sources = 60;
  config.avg_votes_per_item = 8.0;
  config.seed = seed;
  return GenerateLongTail(config);
}

// The same shapes with up to three false values per item and less accurate
// sources, so many items carry three or four claims. Every item keeps its
// true value among its claims, so each can be pinned to it.
SyntheticDataset GenerateMultiClaim(bool dense, std::uint64_t seed) {
  if (dense) {
    DenseConfig config;
    config.num_items = 90;
    config.num_sources = 12;
    config.density = 0.4;
    config.accuracy_mean = 0.6;
    config.max_false_claims = 3;
    config.ensure_true_claim = true;
    config.seed = seed;
    return GenerateDense(config);
  }
  LongTailConfig config;
  config.num_items = 90;
  config.num_sources = 60;
  config.avg_votes_per_item = 8.0;
  config.accuracy_mean = 0.6;
  config.max_false_claims = 3;
  config.ensure_true_claim = true;
  config.seed = seed;
  return GenerateLongTail(config);
}

class StrategyContractTest
    : public ::testing::TestWithParam<StrategyPropertyCase> {};

TEST_P(StrategyContractTest, BatchIsDistinctUnvalidatedConflicting) {
  const auto& param = GetParam();
  const SyntheticDataset data = Generate(param.dense, param.seed);
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  // Pre-validate a third of the conflicting items.
  const auto conflicting = data.db.ConflictingItems();
  for (std::size_t i = 0; i < conflicting.size(); i += 3) {
    ASSERT_TRUE(
        priors.SetExact(data.db, conflicting[i],
                        data.truth.TrueClaim(conflicting[i])).ok());
  }
  const FusionResult fusion = model.Fuse(data.db, priors, opts);
  const GroundTruth& truth = data.truth;
  Rng rng(param.seed);

  const CompiledDatabase compiled(data.db);
  StrategyContext ctx;
  ctx.compiled = &compiled;
  ctx.fusion = &fusion;
  ctx.priors = &priors;
  ctx.model = &model;
  ctx.fusion_opts = &opts;
  ctx.ground_truth = &truth;
  ctx.rng = &rng;

  auto strategy = MakeStrategy(param.strategy);
  ASSERT_TRUE(strategy.ok());
  const auto batch = (*strategy)->SelectBatch(ctx, 8);
  EXPECT_FALSE(batch.empty());
  std::set<ItemId> seen;
  for (ItemId i : batch) {
    EXPECT_LT(i, data.db.num_items());
    EXPECT_FALSE(priors.Has(i)) << "picked validated item " << i;
    EXPECT_TRUE(data.db.HasConflict(i)) << "picked singleton " << i;
    EXPECT_TRUE(seen.insert(i).second) << "duplicate " << i;
  }
}

TEST_P(StrategyContractTest, SelectionIsDeterministicGivenSeed) {
  const auto& param = GetParam();
  const SyntheticDataset data = Generate(param.dense, param.seed);
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  const FusionResult fusion = model.Fuse(data.db, priors, opts);

  auto run_once = [&]() {
    Rng rng(42);
    const CompiledDatabase compiled(data.db);
    StrategyContext ctx;
    ctx.compiled = &compiled;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data.truth;
    ctx.rng = &rng;
    auto strategy = MakeStrategy(param.strategy);
    EXPECT_TRUE(strategy.ok());
    return (*strategy)->SelectBatch(ctx, 5);
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyContractTest,
    ::testing::Values(
        StrategyPropertyCase{"random", true, 1},
        StrategyPropertyCase{"random", false, 2},
        StrategyPropertyCase{"qbc", true, 3},
        StrategyPropertyCase{"qbc", false, 4},
        StrategyPropertyCase{"us", true, 5},
        StrategyPropertyCase{"us", false, 6},
        StrategyPropertyCase{"meu", true, 7},
        StrategyPropertyCase{"approx_meu", true, 8},
        StrategyPropertyCase{"approx_meu", false, 9},
        StrategyPropertyCase{"approx_meu_k:20", true, 10},
        StrategyPropertyCase{"gub", true, 11},
        StrategyPropertyCase{"gub", false, 12}));

// Analytical invariant of the differential estimate: the first-order
// updates preserve total probability mass per item (before clamping), on
// every dataset and for every hypothesized validation.
class DifferentialInvariantTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialInvariantTest, FastEqualsLiteralEverywhere) {
  const SyntheticDataset data = Generate(/*dense=*/true, GetParam());
  AccuFusion model;
  const FusionResult fusion = model.Fuse(data.db, FusionOptions{});
  const CompiledDatabase compiled(data.db);
  const auto conflicting = data.db.ConflictingItems();
  AccuracyDeltas deltas;
  std::vector<double> fast;
  // Spot-check a handful of validations on a handful of neighbours.
  for (std::size_t c = 0; c < conflicting.size(); c += 7) {
    const ItemId validated = conflicting[c];
    for (ClaimIndex t = 0; t < data.db.num_claims(validated); ++t) {
      ComputeAccuracyDeltas(compiled, fusion, validated, t, &deltas);
      for (std::size_t j = 0; j < data.db.num_items(); j += 11) {
        if (j == validated) continue;
        EstimateUpdatedProbs(compiled, fusion, static_cast<ItemId>(j), deltas,
                             &fast);
        const auto literal = EstimateUpdatedProbsLiteral(
            data.db, fusion, static_cast<ItemId>(j), deltas);
        for (std::size_t k = 0; k < fast.size(); ++k) {
          ASSERT_NEAR(fast[k], literal[k], 1e-5)
              << "validated=" << validated << " j=" << j;
        }
      }
    }
  }
}

// Brute-force Approx-MEU expected entropy (Eq. 13 under the one-hop
// truncation), sharing nothing with the CSR kernel but the Eq. (9) deltas:
// neighbours from a plain Database walk, the literal Eq. (10) form, and
// Entropy over a fresh vector per neighbour.
double ReferenceExpectedEntropy(const Database& db,
                                const CompiledDatabase& compiled,
                                const FusionResult& fusion,
                                const PriorSet& priors, ItemId i,
                                const std::vector<bool>* impact_filter) {
  std::set<ItemId> neighbors;
  for (const ItemVote& iv : db.item_votes(i)) {
    for (const Vote& vote : db.source(iv.source).votes) {
      if (vote.item != i) neighbors.insert(vote.item);
    }
  }
  double total = 0.0;
  for (ItemId j = 0; j < db.num_items(); ++j) total += fusion.ItemEntropy(j);
  AccuracyDeltas deltas;
  double expected = 0.0;
  for (ClaimIndex t = 0; t < db.num_claims(i); ++t) {
    const double pt = fusion.prob(i, t);
    if (pt <= 0.0) continue;
    ComputeAccuracyDeltas(compiled, fusion, i, t, &deltas);
    double estimate = total - fusion.ItemEntropy(i);
    for (ItemId j : neighbors) {
      if (priors.Has(j) || db.num_claims(j) <= 1) continue;
      if (impact_filter != nullptr && !(*impact_filter)[j]) continue;
      estimate += Entropy(EstimateUpdatedProbsLiteral(db, fusion, j, deltas)) -
                  fusion.ItemEntropy(j);
    }
    expected += pt * estimate;
  }
  return expected;
}

TEST_P(DifferentialInvariantTest, CsrKernelMatchesBruteForceReference) {
  for (const bool dense : {true, false}) {
    const SyntheticDataset data = Generate(dense, GetParam());
    AccuFusion model;
    FusionOptions opts;
    // Pin every fifth conflicting item, so some neighbours are pinned. The
    // pins are soft (confidence feedback): a one-hot pin would not move
    // under the estimate anyway, so only a soft one shows that pinned
    // neighbours are left out.
    PriorSet priors;
    const auto conflicting = data.db.ConflictingItems();
    for (std::size_t c = 0; c < conflicting.size(); c += 5) {
      const ItemId item = conflicting[c];
      const std::size_t n = data.db.num_claims(item);
      std::vector<double> soft(n, 0.2 / static_cast<double>(n - 1));
      soft[data.truth.TrueClaim(item)] = 0.8;
      ASSERT_TRUE(priors.SetDistribution(data.db, item, soft).ok());
    }
    const FusionResult fusion = model.Fuse(data.db, priors, opts);
    const CompiledDatabase compiled(data.db);
    StrategyContext ctx;
    ctx.compiled = &compiled;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    // Approx-MEU_k's impact filter: its top-20% candidate set.
    std::vector<bool> top_k(data.db.num_items(), false);
    for (ItemId j : ApproxMeuKStrategy::FilterCandidates(ctx, 20.0)) {
      top_k[j] = true;
    }

    std::size_t singletons = 0;
    for (ItemId i = 0; i < data.db.num_items(); ++i) {
      if (!data.db.HasConflict(i)) ++singletons;
      const std::vector<bool>* filters[] = {nullptr, &top_k};
      for (const std::vector<bool>* filter : filters) {
        const double want = ReferenceExpectedEntropy(
            data.db, compiled, fusion, priors, i, filter);
        const double got =
            ApproxMeuStrategy::ExpectedEntropyAfterValidation(ctx, i, filter);
        EXPECT_NEAR(got, want, 1e-9 * std::fabs(want))
            << (dense ? "dense" : "longtail") << " item " << i
            << (filter != nullptr ? " (top-k filter)" : "");
      }
    }
    EXPECT_GT(singletons, 0u) << (dense ? "dense" : "longtail");
  }
}

// The fast kernel on what the binary sweep above cannot reach: items of up
// to four claims (so the hypotheses t run past 2, the multi-claim body),
// two-claim candidates next to 3- and 4-claim items (the two-claim body's
// g(v; t) then spans all of a neighbour's claims), and one-hot as well as
// soft pins. The kernel's gains also stay within the documented error of
// the canonical body's, 1e-9 * max(|gain|, kNearTieFloor), which the
// near-tie window is twice of.
TEST_P(DifferentialInvariantTest,
       SingleWalkMatchesBruteForceOnMultiClaimItems) {
  // Two-claim candidates that reach a 3-claim and a 4-claim item. The
  // long-tail shape does not always have the latter, so the fixture's
  // coverage is asserted over both shapes.
  std::size_t two_claim_next_to[5] = {0, 0, 0, 0, 0};
  for (const bool dense : {true, false}) {
    for (const bool one_hot : {false, true}) {
      const std::string label = std::string(dense ? "dense" : "longtail") +
                                (one_hot ? " one-hot" : " soft");
      const SyntheticDataset data = GenerateMultiClaim(dense, GetParam());
      std::size_t max_claims = 0;
      for (ItemId i = 0; i < data.db.num_items(); ++i) {
        max_claims = std::max(max_claims, data.db.num_claims(i));
      }
      ASSERT_GT(max_claims, 2u) << label;
      for (ItemId i : data.db.ConflictingItems()) {
        if (data.db.num_claims(i) != 2) continue;
        bool reaches[5] = {false, false, false, false, false};
        for (const ItemVote& iv : data.db.item_votes(i)) {
          for (const Vote& vote : data.db.source(iv.source).votes) {
            if (vote.item != i) reaches[data.db.num_claims(vote.item)] = true;
          }
        }
        for (std::size_t n = 3; n <= 4; ++n) two_claim_next_to[n] += reaches[n];
      }
      AccuFusion model;
      FusionOptions opts;
      PriorSet priors;
      const auto conflicting = data.db.ConflictingItems();
      for (std::size_t c = 0; c < conflicting.size(); c += 5) {
        const ItemId item = conflicting[c];
        const ClaimIndex truth = data.truth.TrueClaim(item);
        if (one_hot) {
          ASSERT_TRUE(priors.SetExact(data.db, item, truth).ok());
          continue;
        }
        const std::size_t n = data.db.num_claims(item);
        std::vector<double> soft(n, 0.2 / static_cast<double>(n - 1));
        soft[truth] = 0.8;
        ASSERT_TRUE(priors.SetDistribution(data.db, item, soft).ok());
      }
      const FusionResult fusion = model.Fuse(data.db, priors, opts);
      const CompiledDatabase compiled(data.db);
      StrategyContext ctx;
      ctx.compiled = &compiled;
      ctx.fusion = &fusion;
      ctx.priors = &priors;
      ctx.model = &model;
      ctx.fusion_opts = &opts;
      std::vector<bool> top_k(data.db.num_items(), false);
      for (ItemId j : ApproxMeuKStrategy::FilterCandidates(ctx, 20.0)) {
        top_k[j] = true;
      }

      const std::vector<bool>* filters[] = {nullptr, &top_k};
      for (ItemId i = 0; i < data.db.num_items(); ++i) {
        for (const std::vector<bool>* filter : filters) {
          const double want = ReferenceExpectedEntropy(
              data.db, compiled, fusion, priors, i, filter);
          const double got =
              ApproxMeuStrategy::ExpectedEntropyAfterValidation(ctx, i, filter);
          EXPECT_NEAR(got, want, 1e-9 * std::fabs(want))
              << label << " item " << i
              << (filter != nullptr ? " (top-k filter)" : "");
        }
      }
      const std::vector<ItemId> candidates = CandidateItems(ctx);
      for (const std::vector<bool>* filter : filters) {
        const std::vector<double> fast =
            ApproxMeuStrategy::ScoreCandidates(ctx, candidates, filter);
        const std::vector<double> canonical =
            ApproxMeuStrategy::CanonicalGains(ctx, candidates, filter);
        for (std::size_t k = 0; k < candidates.size(); ++k) {
          EXPECT_NEAR(fast[k], canonical[k],
                      1e-9 * std::max(std::fabs(canonical[k]),
                                      CandidateScan::kNearTieFloor))
              << label << " candidate " << candidates[k];
        }
      }
    }
  }
  EXPECT_GT(two_claim_next_to[3], 0u);
  EXPECT_GT(two_claim_next_to[4], 0u);
}

// The near-tie step's guarantee: perturbing every fast gain by up to half
// the window, tau/2 * max(|gain|, floor), through a scorer wrapper leaves
// the selection at the canonical body's top k. Each trial draws one
// perturbation per candidate; the last pushes the canonical leaders down
// and the rest up, the direction that would reorder near ties.
TEST_P(DifferentialInvariantTest, NearTieStepAbsorbsHalfWindowPerturbations) {
  for (const bool dense : {true, false}) {
    const SyntheticDataset data = GenerateMultiClaim(dense, GetParam());
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
    const std::vector<ItemId> candidates = CandidateItems(ctx);
    const std::vector<double> fast =
        ApproxMeuStrategy::ScoreCandidates(ctx, candidates, nullptr);
    const std::vector<double> canonical =
        ApproxMeuStrategy::CanonicalGains(ctx, candidates, nullptr);
    const double half = CandidateScan::kNearTieRel / 2.0;
    Rng rng(GetParam());
    CandidateScan scan;
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
      const std::vector<ItemId> want = TopKByScore(candidates, canonical, k);
      const std::vector<ItemId> leaders =
          TopKByScore(candidates, canonical, k + 1);
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<double> unit(candidates.size());
        for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
          const bool leader = std::find(leaders.begin(), leaders.end(),
                                        candidates[idx]) != leaders.end();
          unit[idx] = trial < 7 ? rng.Uniform(-1.0, 1.0)
                                : (leader ? -0.999 : 0.999);
        }
        const CandidateScan::Scorer perturbed = [&](std::size_t,
                                                    std::size_t idx) {
          return fast[idx] +
                 unit[idx] * half *
                     std::max(std::fabs(fast[idx]),
                              CandidateScan::kNearTieFloor);
        };
        const std::vector<double> gains =
            scan.Gains(candidates, perturbed, /*cancel=*/nullptr);
        EXPECT_EQ(ApproxMeuStrategy::SelectTopK(ctx, candidates, gains, k,
                                                nullptr),
                  want)
            << (dense ? "dense" : "longtail") << " k=" << k
            << " trial " << trial;
        EXPECT_EQ(CandidateScan::SelectTopK(
                      candidates, gains, k,
                      [&](std::size_t idx) { return canonical[idx]; },
                      /*cancel=*/nullptr),
                  want)
            << (dense ? "dense" : "longtail") << " k=" << k
            << " trial " << trial;
      }
    }
  }
}

TEST_P(DifferentialInvariantTest, MeuAndApproxAgreeOnObviousWinner) {
  // Construct a dataset with one overwhelmingly important disputed item:
  // both the exact and the approximate frameworks should rank an item
  // touching many sources above an isolated one. We verify the weaker,
  // robust property that Approx-MEU's top pick is within MEU's top half.
  DenseConfig config;
  config.num_items = 40;
  config.num_sources = 8;
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

  MeuStrategy meu;
  ApproxMeuStrategy approx;
  const auto meu_ranking =
      meu.SelectBatch(ctx, data.db.ConflictingItems().size());
  const ItemId approx_pick = approx.SelectNext(ctx);
  const auto pos = std::find(meu_ranking.begin(), meu_ranking.end(),
                             approx_pick) -
                   meu_ranking.begin();
  EXPECT_LT(static_cast<std::size_t>(pos),
            (meu_ranking.size() + 1) / 2 + 1)
      << "Approx-MEU pick ranked " << pos << " of " << meu_ranking.size()
      << " by exact MEU";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialInvariantTest,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace veritas
