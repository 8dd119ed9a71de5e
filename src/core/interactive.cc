#include "core/interactive.h"

namespace veritas {

InteractiveSession::InteractiveSession(const Database& db,
                                       const FusionModel& model,
                                       Strategy* strategy,
                                       FusionOptions fusion_options, Rng* rng)
    : db_(db),
      model_(model),
      strategy_(strategy),
      fusion_options_(fusion_options),
      rng_(rng),
      compiled_(db) {
  strategy_->Reset();
  fusion_ = model_.Fuse(compiled_, priors_, fusion_options_);
}

StrategyContext InteractiveSession::MakeContext() {
  StrategyContext ctx;
  ctx.db = &db_;
  ctx.compiled = &compiled_;
  ctx.fusion = &fusion_;
  ctx.priors = &priors_;
  ctx.model = &model_;
  ctx.fusion_opts = &fusion_options_;
  ctx.rng = rng_;
  ctx.excluded = &unanswerable_;
  return ctx;
}

void InteractiveSession::Refuse() {
  FusionResult next =
      model_.Fuse(compiled_, priors_, fusion_options_, &fusion_);
  if (!next.converged()) ++nonconverged_fusions_;
  if (!next.AllFinite()) {
    // Keep the last-good fusion: a NaN readout would corrupt every
    // probability the UI displays and every future suggestion.
    ++fusion_fallbacks_;
    return;
  }
  fusion_ = std::move(next);
}

Result<Suggestion> InteractiveSession::NextSuggestion() {
  StrategyContext ctx = MakeContext();
  const ItemId item = strategy_->SelectNext(ctx);
  if (item == kInvalidItem) {
    return Status::NotFound("no unvalidated conflicting items remain");
  }
  Suggestion suggestion;
  suggestion.item = item;
  suggestion.item_name = db_.item(item).name;
  for (ClaimIndex k = 0; k < db_.num_claims(item); ++k) {
    suggestion.claim_values.push_back(db_.item(item).claims[k].value);
    suggestion.current_probs.push_back(fusion_.prob(item, k));
  }
  return suggestion;
}

std::vector<Suggestion> InteractiveSession::NextSuggestions(std::size_t n) {
  StrategyContext ctx = MakeContext();
  const std::vector<ItemId> batch = strategy_->SelectBatch(ctx, n);
  std::vector<Suggestion> out;
  out.reserve(batch.size());
  for (ItemId item : batch) {
    Suggestion suggestion;
    suggestion.item = item;
    suggestion.item_name = db_.item(item).name;
    for (ClaimIndex k = 0; k < db_.num_claims(item); ++k) {
      suggestion.claim_values.push_back(db_.item(item).claims[k].value);
      suggestion.current_probs.push_back(fusion_.prob(item, k));
    }
    out.push_back(std::move(suggestion));
  }
  return out;
}

Status InteractiveSession::SubmitExactFeedback(ItemId item, ClaimIndex claim) {
  VERITAS_RETURN_IF_ERROR(priors_.SetExact(db_, item, claim));
  Refuse();
  return Status::OK();
}

Status InteractiveSession::SubmitExactFeedback(const std::string& item,
                                               const std::string& value) {
  VERITAS_ASSIGN_OR_RETURN(ItemId item_id, db_.FindItem(item));
  VERITAS_ASSIGN_OR_RETURN(ClaimIndex claim, db_.FindClaim(item_id, value));
  return SubmitExactFeedback(item_id, claim);
}

Status InteractiveSession::SubmitFeedback(ItemId item,
                                          std::vector<double> distribution) {
  VERITAS_RETURN_IF_ERROR(
      priors_.SetDistribution(db_, item, std::move(distribution)));
  Refuse();
  return Status::OK();
}

Status InteractiveSession::MarkUnanswerable(ItemId item) {
  if (item >= db_.num_items()) {
    return Status::OutOfRange("unanswerable: item id out of range");
  }
  unanswerable_.insert(item);
  return Status::OK();
}

Status InteractiveSession::RetractFeedback(ItemId item) {
  if (!priors_.Has(item)) {
    return Status::NotFound("no feedback recorded for item id " +
                            std::to_string(item));
  }
  priors_.Erase(item);
  // Retraction invalidates the warm start less gracefully; re-fuse cold to
  // avoid anchoring on the retracted knowledge.
  fusion_ = model_.Fuse(compiled_, priors_, fusion_options_);
  return Status::OK();
}

}  // namespace veritas
