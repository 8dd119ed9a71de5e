// InteractiveSession: the ask/answer API for embedding the feedback
// framework into a real application (UI, labeling tool, crowdsourcing
// frontend). Unlike FeedbackSession — which simulates the user with an
// oracle — this class hands control to the caller: it suggests the next
// most valuable item (Figure 1's loop) and accepts whatever feedback the
// caller obtained, in any order.
#ifndef VERITAS_CORE_INTERACTIVE_H_
#define VERITAS_CORE_INTERACTIVE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/strategy.h"
#include "fusion/fusion_model.h"
#include "model/ground_truth.h"
#include "util/result.h"

namespace veritas {

/// A suggestion returned by InteractiveSession::NextSuggestion.
struct Suggestion {
  ItemId item = kInvalidItem;
  std::string item_name;
  /// The claim values to present to the user, in claim-index order.
  std::vector<std::string> claim_values;
  /// Current fusion probabilities of those claims.
  std::vector<double> current_probs;
};

/// Interactive feedback loop around one database + fusion model + strategy.
class InteractiveSession {
 public:
  /// All referenced objects must outlive the session. `rng` may be null for
  /// deterministic strategies.
  InteractiveSession(const Database& db, const FusionModel& model,
                     Strategy* strategy, FusionOptions fusion_options,
                     Rng* rng = nullptr);

  /// The most valuable unvalidated item right now, with its claims and the
  /// current fusion beliefs; NotFound when everything is validated.
  Result<Suggestion> NextSuggestion();

  /// Up to `n` suggestions, best first (for batched UIs, §4.3).
  std::vector<Suggestion> NextSuggestions(std::size_t n);

  /// Records that the user validated `claim` as the true claim of `item`
  /// and re-fuses.
  Status SubmitExactFeedback(ItemId item, ClaimIndex claim);

  /// Same by value string.
  Status SubmitExactFeedback(const std::string& item,
                             const std::string& value);

  /// Records distribution feedback (confidence/crowd answers, §4.4) and
  /// re-fuses.
  Status SubmitFeedback(ItemId item, std::vector<double> distribution);

  /// Removes previously submitted feedback (the user changed their mind)
  /// and re-fuses.
  Status RetractFeedback(ItemId item);

  /// Records that `item` cannot be answered (the expert is unreachable or
  /// declines): it stops being suggested and NextSuggestion moves on to the
  /// next-best item, so one dead question never stalls the loop.
  Status MarkUnanswerable(ItemId item);

  /// Lifts a previous MarkUnanswerable (the expert came back).
  void ClearUnanswerable(ItemId item) { unanswerable_.erase(item); }

  /// Items currently marked unanswerable.
  std::size_t num_unanswerable() const { return unanswerable_.size(); }

  /// Current fusion output.
  const FusionResult& fusion() const { return fusion_; }

  /// Validated knowledge accumulated so far.
  const PriorSet& priors() const { return priors_; }

  /// Total output entropy — the uncertainty readout a UI would display.
  double CurrentUncertainty() const { return fusion_.TotalEntropy(); }

  /// Number of items validated so far.
  std::size_t num_validated() const { return priors_.size(); }

  /// Re-fusions that reported converged() == false (§3's caveat surfaced).
  std::size_t num_nonconverged_fusions() const {
    return nonconverged_fusions_;
  }

  /// Re-fusions discarded because they contained non-finite probabilities;
  /// the session kept the last-good result instead (graceful degradation).
  std::size_t num_fusion_fallbacks() const { return fusion_fallbacks_; }

 private:
  StrategyContext MakeContext();
  void Refuse();

  const Database& db_;
  const FusionModel& model_;
  Strategy* strategy_;
  FusionOptions fusion_options_;
  Rng* rng_;
  CompiledDatabase compiled_;  // The session's view of db_ (frozen).
  PriorSet priors_;
  FusionResult fusion_;
  std::unordered_set<ItemId> unanswerable_;
  std::size_t nonconverged_fusions_ = 0;
  std::size_t fusion_fallbacks_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_CORE_INTERACTIVE_H_
