// Extension experiment: the full §4.4 crowd pipeline.
//
// The paper assumes "the crowdsourcing system processes conflicting
// answers from workers and provides the most accurate label". Here that
// system is real: a simulated worker pool answers each validation request
// and the answers are consolidated by majority vote or by Dawid-Skene-
// style EM (which jointly learns worker accuracies). We measure how much
// consolidation quality matters to the feedback loop.
#include <iostream>

#include "core/strategy_factory.h"
#include "crowd/consolidation.h"
#include "data/synthetic.h"
#include "exp/harness.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"

using namespace veritas;

namespace {

Result<double> RunCrowdSession(const SyntheticDataset& data,
                               FeedbackOracle* oracle, std::size_t budget) {
  AccuFusion model;
  VERITAS_ASSIGN_OR_RETURN(auto strategy, MakeStrategy("approx_meu"));
  SessionOptions options;
  options.max_validations = budget;
  Rng rng(9);
  FeedbackSession session(data.db, model, strategy.get(), oracle,
                          data.truth, options, &rng);
  VERITAS_ASSIGN_OR_RETURN(SessionTrace trace, session.Run());
  return trace.DistanceReductionPercent(trace.steps.size() - 1);
}

}  // namespace

int main() {
  const ScaleMode mode = GetScaleMode();
  DenseConfig config;
  config.num_items = mode == ScaleMode::kSmall ? 200 : 600;
  config.num_sources = 20;
  config.density = 0.4;
  config.accuracy_mean = 0.72;
  config.copier_fraction = 0.4;
  config.seed = 55;
  const SyntheticDataset data = GenerateDense(config);
  const std::size_t budget =
      std::max<std::size_t>(10, data.db.ConflictingItems().size() / 5);

  PrintBanner(std::cout,
              "Extension — crowd feedback pipeline (Approx-MEU, " +
                  std::to_string(budget) + " validations)");
  TextTable table({"feedback source", "distance reduction"});

  {
    PerfectOracle perfect;
    auto reduction = RunCrowdSession(data, &perfect, budget);
    table.AddRow({"perfect expert", reduction.ok() ? Pct(*reduction) : "ERR"});
  }
  for (double worker_accuracy : {0.9, 0.75, 0.6}) {
    for (const auto& mode_pair :
         {std::pair<CrowdOracle::Mode, const char*>{
              CrowdOracle::Mode::kMajority, "majority"},
          std::pair<CrowdOracle::Mode, const char*>{CrowdOracle::Mode::kEm,
                                                    "EM"}}) {
      WorkerPoolConfig pool_config;
      pool_config.num_workers = 25;
      pool_config.accuracy_mean = worker_accuracy;
      pool_config.accuracy_sd = 0.15;
      pool_config.answers_per_item = 5;
      pool_config.seed = 7;
      WorkerPool pool(pool_config);
      CrowdOracle oracle(&pool, mode_pair.first);
      auto reduction = RunCrowdSession(data, &oracle, budget);
      table.AddRow({"crowd acc=" + Num(worker_accuracy, 2) + " (" +
                        mode_pair.second + ")",
                    reduction.ok() ? Pct(*reduction) : "ERR"});
    }
  }
  table.Print(std::cout);
  std::cout << "(EM consolidation should track majority at high worker "
               "accuracy and beat it as workers get noisy)\n";
  return 0;
}
