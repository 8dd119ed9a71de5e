#include "core/hybrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "core/approx_meu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace veritas {

ApproxMeuKStrategy::ApproxMeuKStrategy(double k_percent,
                                       std::size_t num_threads)
    : k_percent_(k_percent), scan_(num_threads) {
  assert(k_percent > 0.0 && k_percent <= 100.0);
}

std::string ApproxMeuKStrategy::name() const {
  // "approx_meu_k:10" style, with trailing zeros trimmed for round values.
  const double rounded = std::round(k_percent_);
  if (std::fabs(rounded - k_percent_) < 1e-9) {
    return "approx_meu_k:" + std::to_string(static_cast<int>(rounded));
  }
  return "approx_meu_k:" + FormatDouble(k_percent_, 2);
}

std::vector<ItemId> ApproxMeuKStrategy::FilterCandidates(
    const StrategyContext& ctx, double k_percent) {
  std::vector<ItemId> candidates = CandidateItems(ctx);
  if (candidates.empty()) return candidates;

  // Rank by vote entropy first, fusion-output entropy second (§B.3).
  std::vector<double> vote_h(candidates.size());
  std::vector<double> fusion_h(candidates.size());
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    vote_h[idx] = VoteEntropy(*ctx.compiled, candidates[idx]);
    fusion_h[idx] = ctx.fusion->ItemEntropy(candidates[idx]);
  }
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (vote_h[a] != vote_h[b]) return vote_h[a] > vote_h[b];
    if (fusion_h[a] != fusion_h[b]) return fusion_h[a] > fusion_h[b];
    return candidates[a] < candidates[b];
  });

  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(candidates.size()) * k_percent /
                       100.0)));
  std::vector<ItemId> out;
  out.reserve(std::min(keep, candidates.size()));
  for (std::size_t i = 0; i < order.size() && out.size() < keep; ++i) {
    out.push_back(candidates[order[i]]);
  }
  return out;
}

std::vector<ItemId> ApproxMeuKStrategy::SelectBatch(const StrategyContext& ctx,
                                                    std::size_t batch) {
  VERITAS_SPAN("strategy.hybrid.select");
  static Counter* select_calls =
      MetricsRegistry::Global().GetCounter("strategy.hybrid.select_calls");
  static Histogram* kept_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.hybrid.kept_candidates", MetricsRegistry::CountEdges());
  select_calls->Add(1);
  const std::vector<ItemId> candidates = FilterCandidates(ctx, k_percent_);
  kept_hist->Observe(static_cast<double>(candidates.size()));
  if (candidates.empty()) return candidates;
  // Hard stop between the filter and the (expensive) impact scoring; the
  // scoring loop itself polls the token per candidate.
  if (HardStopRequested(ctx.cancel)) return {};
  // Impact computation is restricted to the same top-k% set (§B.3: "We
  // compute only the impact of these ... data items on each other").
  std::vector<bool> impact_filter(ctx.compiled->num_items(), false);
  for (ItemId i : candidates) impact_filter[i] = true;
  const std::vector<double> gains = ApproxMeuStrategy::ScoreCandidates(
      ctx, candidates, &impact_filter, &scan_);
  return TopKByScore(candidates, gains, batch);
}

}  // namespace veritas
