// QBC — Query-by-Committee (§4.1.1): ranks items by the entropy of their
// source-vote distribution (vote entropy, Eq. 3 over Eq. 5). Depends only on
// the observations, not on the fusion output, so the ranking is computed once
// per session and replayed.
#ifndef VERITAS_CORE_QBC_H_
#define VERITAS_CORE_QBC_H_

#include "core/strategy.h"

namespace veritas {

/// Disagreement-based item-level ranking.
class QbcStrategy : public Strategy {
 public:
  std::string name() const override { return "qbc"; }

  void Reset() override { ranked_.clear(); }

  std::vector<ItemId> SelectBatch(const StrategyContext& ctx,
                                  std::size_t batch) override;

 private:
  // Items in descending vote-entropy order, computed lazily on first call.
  // Vote entropies never change during a session over a frozen database
  // (§4.1.1: QBC "does not need to recompute entropies after a validation").
  // Keyed on the view's (id, epoch): the id tells views apart even at a
  // recycled address, the epoch catches a streaming view rebuilt in place.
  std::vector<ItemId> ranked_;
  std::uint64_t ranked_view_id_ = 0;
  std::uint64_t ranked_epoch_ = 0;
  bool ranked_includes_singletons_ = false;
};

}  // namespace veritas

#endif  // VERITAS_CORE_QBC_H_
