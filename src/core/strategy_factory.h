// Construction of strategies by name, for command-line experiment tools.
#ifndef VERITAS_CORE_STRATEGY_FACTORY_H_
#define VERITAS_CORE_STRATEGY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "util/result.h"

namespace veritas {

/// Creates a strategy from its name: "random", "qbc", "us", "meu",
/// "approx_meu", "approx_meu_k:<percent>", "gub", "gub_expectation".
/// Unknown names yield NotFound. `num_threads` > 1 parallelizes the
/// candidate scan of the lookahead strategies ("meu", "meu2", "approx_meu",
/// "approx_meu_k:*", "gub", "gub_expectation") over the persistent pool of
/// their CandidateScan; the cheap ranking strategies ignore it. Selected
/// items are identical for every thread count. All built-in fusion models
/// are thread-safe.
Result<std::unique_ptr<Strategy>> MakeStrategy(const std::string& name,
                                               std::size_t num_threads = 1);

/// Representative names accepted by MakeStrategy.
std::vector<std::string> StrategyNames();

}  // namespace veritas

#endif  // VERITAS_CORE_STRATEGY_FACTORY_H_
