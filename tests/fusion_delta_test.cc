// Equivalence and consistency suite for the incremental DeltaFusion
// lookahead and the CompiledDatabase CSR view: on randomized synthetic
// databases, the entropy-only MEU lookahead after a pin must agree with
// materializing the warm-started full re-fusion and summing (within the
// convergence tolerance both paths stop at), Create must cover exactly the
// local-update models, and the CSR view must index exactly the observations
// the nested Database holds.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fusion/accu_copy.h"
#include "fusion/delta_fusion.h"
#include "fusion/fusion_factory.h"
#include "model/compiled_database.h"

namespace veritas {
namespace {

// Both paths stop when the L-infinity accuracy change drops below
// `tolerance` (1e-6), so each can sit up to ~tolerance * rho / (1 - rho)
// from the shared fixed point; the bound leaves room for that without
// masking real divergence.
constexpr double kEntropyTol = 1e-3;

struct DeltaCase {
  std::string model;
  bool dense;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const DeltaCase& c) {
    return os << c.model << (c.dense ? "_dense_" : "_longtail_") << c.seed;
  }
};

SyntheticDataset Generate(const DeltaCase& c) {
  if (c.dense) {
    DenseConfig config;
    config.num_items = 120;
    config.num_sources = 16;
    config.density = 0.4;
    config.max_false_claims = 3;
    config.seed = c.seed;
    return GenerateDense(config);
  }
  LongTailConfig config;
  config.num_items = 120;
  config.num_sources = 70;
  config.avg_votes_per_item = 7.0;
  config.max_false_claims = 3;
  config.seed = c.seed;
  return GenerateLongTail(config);
}

class DeltaEquivalenceTest : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(DeltaEquivalenceTest, EntropyAfterPinMatchesMaterializedRefusion) {
  const SyntheticDataset data = Generate(GetParam());
  auto model = MakeFusionModel(GetParam().model);
  ASSERT_TRUE(model.ok());
  const FusionOptions opts;
  const FusionResult base = (*model)->Fuse(data.db, PriorSet(), opts);
  const auto engine = DeltaFusionEngine::Create(data.db, **model, opts);
  ASSERT_NE(engine, nullptr);
  const DeltaFusionEngine::BaseState state = engine->PrepareBase(base);
  DeltaFusionEngine::Workspace ws;
  const PriorSet no_priors;

  const std::vector<ItemId> conflicting = data.db.ConflictingItems();
  ASSERT_FALSE(conflicting.empty());
  for (std::size_t idx = 0; idx < std::min<std::size_t>(4, conflicting.size());
       ++idx) {
    const ItemId pin = conflicting[idx];
    for (ClaimIndex k = 0; k < std::min<std::size_t>(2, data.db.num_claims(pin));
         ++k) {
      const double h_delta =
          engine->EntropyAfterExactPin(state, ws, no_priors, pin, k);
      PriorSet lookahead;
      lookahead.SetExact(data.db, pin, k);
      const double h_full =
          (*model)->Fuse(data.db, lookahead, opts, &base).TotalEntropy();
      EXPECT_NEAR(h_delta, h_full, kEntropyTol) << "pin " << pin << "/" << k;
      // The workspace must restore itself after each call: repeating the
      // same pin from the same base must reproduce the value exactly.
      EXPECT_EQ(h_delta,
                engine->EntropyAfterExactPin(state, ws, no_priors, pin, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, DeltaEquivalenceTest,
    ::testing::Values(DeltaCase{"accu", true, 11}, DeltaCase{"accu", true, 12},
                      DeltaCase{"accu", false, 13},
                      DeltaCase{"accu", false, 14},
                      DeltaCase{"voting", true, 21},
                      DeltaCase{"voting", false, 22},
                      DeltaCase{"truthfinder", true, 31},
                      DeltaCase{"truthfinder", false, 32}));

TEST(DeltaFusionSupportTest, CreateCoversExactlyTheLocalUpdateModels) {
  const SyntheticDataset data = Generate({"accu", true, 5});
  const FusionOptions opts;
  for (const char* name : {"accu", "voting", "truthfinder"}) {
    auto model = MakeFusionModel(name);
    ASSERT_TRUE(model.ok());
    EXPECT_NE(DeltaFusionEngine::Create(data.db, **model, opts), nullptr)
        << name;
  }
  // AccuCopy re-estimates source dependence from all pairwise agreements, so
  // a pin is never a local update; the engine must refuse it.
  AccuCopyFusion accu_copy;
  EXPECT_EQ(DeltaFusionEngine::Create(data.db, accu_copy, opts), nullptr);
}

// The CSR view must be a faithful re-indexing of the nested Database: same
// counts, and every observation reachable through each of the three indexes.
TEST(CompiledDatabaseTest, ViewMatchesDatabase) {
  for (std::uint64_t seed : {3u, 7u}) {
    const SyntheticDataset data = Generate({"accu", seed % 2 == 1, seed});
    const Database& db = data.db;
    const CompiledDatabase c(db);

    ASSERT_EQ(c.num_items(), db.num_items());
    ASSERT_EQ(c.num_sources(), db.num_sources());
    ASSERT_EQ(c.num_observations(), db.num_observations());

    std::size_t total_claims = 0;
    for (ItemId i = 0; i < db.num_items(); ++i) {
      ASSERT_EQ(c.item_num_claims(i), db.num_claims(i)) << "item " << i;
      ASSERT_EQ(c.claim_offset(i), total_claims) << "item " << i;
      total_claims += db.num_claims(i);
      if (db.num_claims(i) > 1) {
        EXPECT_DOUBLE_EQ(
            c.log_false_values(i),
            std::log(static_cast<double>(db.num_claims(i)) - 1.0));
      }
    }
    ASSERT_EQ(c.num_claims(), total_claims);

    // claim -> sources mirrors Item::claims[k].sources, in order.
    for (ItemId i = 0; i < db.num_items(); ++i) {
      const Item& o = db.item(i);
      for (ClaimIndex k = 0; k < o.claims.size(); ++k) {
        const std::uint32_t g = c.claim_offset(i) + k;
        ASSERT_EQ(c.claim_sources_end(g) - c.claim_sources_begin(g),
                  o.claims[k].sources.size());
        for (std::uint32_t v = c.claim_sources_begin(g);
             v < c.claim_sources_end(g); ++v) {
          EXPECT_EQ(c.claim_sources()[v],
                    o.claims[k].sources[v - c.claim_sources_begin(g)]);
        }
      }
    }

    // item -> votes holds every (source, local claim) pair cast on the item.
    for (ItemId i = 0; i < db.num_items(); ++i) {
      const Item& o = db.item(i);
      std::size_t expected = 0;
      for (const Claim& cl : o.claims) expected += cl.sources.size();
      ASSERT_EQ(c.item_votes_end(i) - c.item_votes_begin(i), expected);
      for (std::uint32_t v = c.item_votes_begin(i); v < c.item_votes_end(i);
           ++v) {
        const ClaimIndex k = c.item_vote_claims()[v];
        const SourceId s = c.item_vote_sources()[v];
        ASSERT_LT(k, o.claims.size());
        bool found = false;
        for (SourceId cs : o.claims[k].sources) found |= (cs == s);
        EXPECT_TRUE(found) << "item " << i << " claim " << k << " source " << s;
      }
    }

    // source -> votes mirrors Source::votes with global claim ids.
    for (SourceId j = 0; j < db.num_sources(); ++j) {
      const Source& s = db.source(j);
      ASSERT_EQ(c.source_degree(j), s.votes.size());
      for (std::uint32_t v = c.source_votes_begin(j); v < c.source_votes_end(j);
           ++v) {
        const Vote& vote = s.votes[v - c.source_votes_begin(j)];
        EXPECT_EQ(c.source_vote_items()[v], vote.item);
        EXPECT_EQ(c.source_vote_claims()[v],
                  c.claim_offset(vote.item) + vote.claim);
      }
    }
  }
}

}  // namespace
}  // namespace veritas
