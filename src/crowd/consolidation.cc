#include "crowd/consolidation.h"

#include <cassert>
#include <cmath>

#include "util/math.h"

namespace veritas {

std::vector<double> ConsolidateByMajority(const ItemAnswers& answers) {
  std::vector<double> counts(answers.num_claims, 0.0);
  for (const WorkerAnswer& a : answers.answers) {
    assert(a.claim < answers.num_claims);
    counts[a.claim] += 1.0;
  }
  NormalizeInPlace(counts);
  return counts;
}

EmConsolidation ConsolidateByEm(const std::vector<ItemAnswers>& items,
                                std::size_t num_workers,
                                const EmConsolidationOptions& options) {
  EmConsolidation out;
  out.worker_accuracies.assign(num_workers, options.initial_accuracy);
  out.item_distributions.resize(items.size());

  std::size_t iter = 0;
  while (iter < options.max_iterations) {
    ++iter;
    // E-step: posterior over each item's claims given worker accuracies.
    // P(label = k | answers) proportional to
    //   prod_{answers a} [ a.claim == k ? acc(w) : (1-acc(w))/(C-1) ].
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      const ItemAnswers& item = items[idx];
      const std::size_t n_claims = std::max<std::size_t>(item.num_claims, 1);
      std::vector<double>& log_scores = out.item_distributions[idx];
      log_scores.assign(n_claims, 0.0);
      for (const WorkerAnswer& a : item.answers) {
        const double acc =
            Clamp(out.worker_accuracies[a.worker], 0.01, 0.99);
        const double wrong_share =
            n_claims > 1 ? (1.0 - acc) / static_cast<double>(n_claims - 1)
                         : 1.0;
        for (std::size_t k = 0; k < n_claims; ++k) {
          log_scores[k] += std::log(k == a.claim ? acc : wrong_share);
        }
      }
      SoftmaxInPlace(log_scores);
    }
    // M-step: worker accuracy = smoothed expected fraction of answers that
    // agree with the current posterior.
    double max_delta = 0.0;
    std::vector<double> agree(num_workers, 0.0);
    std::vector<double> total(num_workers, 0.0);
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      const ItemAnswers& item = items[idx];
      for (const WorkerAnswer& a : item.answers) {
        agree[a.worker] += out.item_distributions[idx][a.claim];
        total[a.worker] += 1.0;
      }
    }
    for (std::size_t w = 0; w < num_workers; ++w) {
      const double updated =
          (agree[w] + options.smoothing * options.initial_accuracy) /
          (total[w] + options.smoothing);
      max_delta =
          std::max(max_delta, std::fabs(updated - out.worker_accuracies[w]));
      out.worker_accuracies[w] = updated;
    }
    if (max_delta < options.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.iterations = iter;
  return out;
}

CrowdOracle::CrowdOracle(WorkerPool* pool, Mode mode)
    : pool_(pool), mode_(mode) {
  assert(pool != nullptr);
}

std::string CrowdOracle::name() const {
  return mode_ == Mode::kMajority ? "crowd:majority" : "crowd:em";
}

Result<std::vector<double>> CrowdOracle::Answer(const Database& db,
                                                ItemId item,
                                                const GroundTruth& truth,
                                                Rng* /*rng*/) {
  if (item >= db.num_items()) {
    return Status::OutOfRange("crowd oracle: item id out of range");
  }
  if (!truth.Knows(item)) {
    return Status::FailedPrecondition(
        "crowd oracle: ground truth unknown for item '" + db.item(item).name +
        "'");
  }
  ItemAnswers collected;
  collected.item = item;
  collected.num_claims = db.num_claims(item);
  collected.answers = pool_->Ask(db, item, truth);
  history_.push_back(collected);

  if (mode_ == Mode::kMajority) {
    return ConsolidateByMajority(collected);
  }
  // EM over the full history: worker accuracies learned across items.
  const EmConsolidation em =
      ConsolidateByEm(history_, pool_->num_workers());
  return em.item_distributions.back();
}

}  // namespace veritas
