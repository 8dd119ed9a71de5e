// Approx-MEU (§4.2.3, Algorithm 2, Appendix A.1): the scalable VPI strategy.
//
// Instead of re-running fusion for every hypothesized validation, Approx-MEU
// analytically estimates the first-order (differential) change a validation
// of item o_i induces in the claim probabilities of its one-hop neighbours:
//
//   1. Validating claim v_i^t changes o_i's probabilities by
//        dp_i^t = 1 - p_i^t,   dp_i^f = -p_i^f          (§4.2.3)
//   2. Eq. (9): every source s voting claim v_i^l on o_i shifts accuracy by
//        dA(s) = dp_i^l / N(s)
//   3. Eq. (10): a neighbour item o_j's claim v_j^r shifts by
//        dp_j^r = -(p_j^r)^2 sum_v f(r,v) (g(v) - g(r))
//      with g(v) = sum_{s in S(v)} dA(s) / (A(s)(1 - A(s))).
//      Substituting f(r,v) = p_j^v / p_j^r collapses this to the closed form
//        dp_j^r = p_j^r (g(r) - sum_v p_j^v g(v)),
//      which sums to zero over an item's claims (distributions stay
//      normalized to first order). Both forms are implemented; tests verify
//      they agree.
//   4. Items more than one hop away are untouched — Theorem 4.1 shows the
//      change decays as (1/N)^d with hop distance d.
//
// The expected entropy after validating o_i (Eq. 13) is then computed over
// the *estimated* probabilities, and the item with the maximum expected
// entropy reduction is selected.
//
// The kernel walks the session's compiled view (ctx.compiled, always set)
// once per candidate, source-major. Eq. (9) is linear in the validated claim
// t: a voter s of o_i with claim c_s shifts by (1[c_s = t] - p_{c_s}) / N(s).
// For a two-claim candidate, the common case, let c_k(v) sum F_s / N(s)
// (F_s the odds-derivative factor) over the voters of claim k that also
// vote v on a neighbour; then g(v; 0) = (1 - p_0) c_0(v) - p_1 c_1(v) and
// g(v; 1) = -p_0 c_0(v) + (1 - p_1) c_1(v), so one walk of the voters'
// source -> votes rows, filling c_0 and c_1 by global claim id, gives both
// hypotheses for every neighbour. A candidate of more than two claims
// splits g(v; t) = b(v) + e^t(v): one walk accumulates the base b, shared
// by every t, and each hypothesis walks only its own voters' rows into one
// reused e array and re-scores just the neighbours they reach; a neighbour
// no t-voter reaches keeps its base estimate. Both bodies write each
// neighbour's clamped updated probabilities into a per-lane batch, and one
// branch-free loop (EntropyTermsInPlace, vectorised at -O3) turns the
// whole batch into entropy terms with LogOfNormal, a log within 1 ulp of
// std::log. The per-lane scratch is O(num_items + num_claims) whatever
// |claims(i)| is and resets through the neighbour and reached lists, so
// scoring a candidate allocates nothing once a lane's scratch has grown to
// the view. A candidate whose neighbours an impact filter leaves so few
// that walking their votes once per t is cheaper than the voters' rows runs
// the per-hypothesis body below. Which items a validation can move at all
// (not pinned, inside the impact filter, more than one claim) is one byte
// mask per scan, shared read-only by the lanes.
//
// The fast bodies sum in another order than the per-hypothesis body (one
// Eq. (9)/(10) pass per t over every neighbour's votes, entropies by
// std::log), so their gains differ from that body's in the last bits. That
// body is the canonical evaluator (CanonicalGains): the final selection
// re-scores the candidates within the near-tie window of the k-th best gain
// with it (CandidateScan::SelectTopK), so selections are the canonical
// body's whatever the fast path's summation order and log.
#ifndef VERITAS_CORE_APPROX_MEU_H_
#define VERITAS_CORE_APPROX_MEU_H_

#include <vector>

#include "core/candidate_scan.h"
#include "core/strategy.h"

namespace veritas {

/// Per-source accuracy deltas induced by a hypothesized validation (Eq. 9),
/// flat over the sources of one compiled view. Sources that do not vote on
/// the validated item hold 0; `voters` lists the ones that do, in the item's
/// vote order, so a reused instance resets in O(voters).
struct AccuracyDeltas {
  std::vector<double> delta;     ///< dA(s), by SourceId.
  std::vector<double> g_weight;  ///< dA(s) / (A(s)(1 - A(s))): s's term of
                                 ///< g(v) in Eq. (10), by SourceId.
  std::vector<SourceId> voters;
};

/// Computes Eq. (9) into `deltas`: the accuracy deltas of all sources voting
/// on `item`, under the hypothesis that claim `true_claim` is validated as
/// true. Resets the entries a previous call wrote; (re)sizes the arrays to
/// the view when its source count changed.
void ComputeAccuracyDeltas(const CompiledDatabase& compiled,
                           const FusionResult& fusion, ItemId item,
                           ClaimIndex true_claim, AccuracyDeltas* deltas);

/// Estimated post-validation distribution of item `j` given source accuracy
/// deltas, using the closed-form first-order update, into `updated`
/// (resized). Entries are clamped into [0, 1]. The canonical per-hypothesis
/// body's estimate (the fast bodies inline the same closed form);
/// O(votes_j + |V_j|), no allocation once `updated` has grown.
void EstimateUpdatedProbs(const CompiledDatabase& compiled,
                          const FusionResult& fusion, ItemId j,
                          const AccuracyDeltas& deltas,
                          std::vector<double>* updated);

/// Literal Eq. (10) implementation (ratio-of-products form) over the nested
/// Database, independent of the CSR. The test oracle for the closed form;
/// O(|V_j|^2) instead of O(|V_j|).
std::vector<double> EstimateUpdatedProbsLiteral(const Database& db,
                                                const FusionResult& fusion,
                                                ItemId j,
                                                const AccuracyDeltas& deltas);

/// The Approx-MEU strategy.
class ApproxMeuStrategy : public Strategy {
 public:
  /// `num_threads` > 1 scores candidates concurrently on the CandidateScan
  /// pool; the differential estimates are independent, so the results are
  /// identical to the sequential run.
  explicit ApproxMeuStrategy(std::size_t num_threads = 1)
      : scan_(num_threads) {}

  std::string name() const override { return "approx_meu"; }

  std::size_t num_threads() const { return scan_.lanes(); }

  std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                  std::size_t batch) override;

  /// Expected total entropy after validating `item`, under the differential
  /// estimate (the EU* of Table 9). When `impact_filter` is non-null, only
  /// neighbour items j with (*impact_filter)[j] participate in the impact
  /// computation (used by Approx-MEU_k, §4.3). Runs the fast body of
  /// ScoreCandidates.
  static double ExpectedEntropyAfterValidation(
      const StrategyContext& ctx, ItemId item,
      const std::vector<bool>* impact_filter);

  /// Scores Delta-EU (Eq. 13 gain) for each candidate; shared with the
  /// hybrid strategy. With a non-null `scan` the candidates fan out over its
  /// lanes (null scores them serially); gains land in disjoint slots so the
  /// result is lane-count independent.
  static std::vector<double> ScoreCandidates(
      const StrategyContext& ctx, const std::vector<ItemId>& candidates,
      const std::vector<bool>* impact_filter, CandidateScan* scan = nullptr);

  /// Delta-EU of every candidate from the canonical body, serially: the
  /// reference the fast bodies and the near-tie step are checked against.
  static std::vector<double> CanonicalGains(
      const StrategyContext& ctx, const std::vector<ItemId>& candidates,
      const std::vector<bool>* impact_filter);

  /// The top `k` of `candidates` by ScoreCandidates' `gains` (same
  /// `impact_filter`), with the candidates in the near-tie window re-scored
  /// by the canonical body (CandidateScan::SelectTopK).
  static std::vector<ItemId> SelectTopK(const StrategyContext& ctx,
                                        const std::vector<ItemId>& candidates,
                                        const std::vector<double>& gains,
                                        std::size_t k,
                                        const std::vector<bool>* impact_filter);

 private:
  CandidateScan scan_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_APPROX_MEU_H_
