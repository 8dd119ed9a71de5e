// GUB — Greedy Upper Bound (§4.2.1 / §5 "Competing Methods" #3): the
// decision-theoretic framework evaluated with the *ground-truth* utility
// function of Definition 3. Infeasible in practice (truth is unknown); used
// as the upper-bound reference in Figures 3 and 4.
//
// Two modes:
//  * kOracle (default): pins the known-true claim, re-fuses, and scores the
//    resulting ground-truth utility — the deterministic greedy upper bound.
//  * kExpectation: the literal Definition 4 expectation, weighting each
//    hypothesized claim by its current fusion probability p_i^k.
// Requires ctx.model, ctx.fusion_opts and ctx.ground_truth.
#ifndef VERITAS_CORE_GUB_H_
#define VERITAS_CORE_GUB_H_

#include "core/candidate_scan.h"
#include "core/strategy.h"

namespace veritas {

/// How GUB aggregates over an item's claims.
enum class GubMode {
  kOracle,       ///< Use the known true claim directly.
  kExpectation,  ///< Definition 4: expectation over claims weighted by p_i^k.
};

/// Ground-truth-utility VPI strategy (the paper's upper bound).
class GubStrategy : public Strategy {
 public:
  /// `num_threads` > 1 scores candidates concurrently on the CandidateScan
  /// pool (each candidate's lookahead re-fusion is independent); results are
  /// identical to the sequential run. Same thread-safety caveat as
  /// MeuStrategy.
  explicit GubStrategy(GubMode mode = GubMode::kOracle,
                       std::size_t num_threads = 1)
      : mode_(mode), scan_(num_threads) {}

  std::string name() const override { return "gub"; }

  std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                  std::size_t batch) override;

  GubMode mode() const { return mode_; }
  std::size_t num_threads() const { return scan_.lanes(); }

 private:
  /// Utility gain of hypothetically validating one candidate.
  double CandidateGain(const StrategyContext& ctx, ItemId item,
                       double current_utility) const;

  GubMode mode_;
  CandidateScan scan_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_GUB_H_
