// Extension experiment: copy detection (AccuCopy vs AccuNoDep).
//
// The paper's fusion substrate assumes source independence (§3, AccuNoDep)
// while its real datasets are known to contain copiers — the full Accu
// model of Dong et al. [7] detects them. This experiment measures, on
// synthetic data with a known copier ground truth, (a) how well the
// dependence posteriors separate copier pairs from independent pairs and
// (b) what copy-aware fusion buys before any user feedback is spent.
#include <iostream>

#include "core/metrics.h"
#include "data/synthetic.h"
#include "exp/report.h"
#include "exp/scale.h"
#include "fusion/accu.h"
#include "fusion/accu_copy.h"
#include "util/stats.h"

using namespace veritas;

int main() {
  const ScaleMode mode = GetScaleMode();
  PrintBanner(std::cout,
              "Extension — copy detection (AccuCopy vs AccuNoDep)");
  TextTable table({"copiers", "accu acc", "accu_copy acc",
                   "dep: pairs w/ copier", "dep: independent pairs",
                   "max dep"});
  for (double copier_fraction : {0.0, 0.3, 0.5}) {
    DenseConfig config;
    config.num_items = mode == ScaleMode::kSmall ? 300 : 1000;
    config.num_sources = 20;
    config.density = 0.4;
    config.accuracy_mean = 0.75;
    config.copier_fraction = copier_fraction;
    config.seed = 11;
    const SyntheticDataset data = GenerateDense(config);

    AccuFusion plain;
    AccuCopyFusion with_copy;
    const FusionResult plain_result = plain.Fuse(data.db, FusionOptions{});
    const FusionResult copy_result =
        with_copy.Fuse(data.db, PriorSet(), FusionOptions{});

    // Copiers occupy the trailing source ids (generator layout).
    const SourceId independents = static_cast<SourceId>(
        data.db.num_sources() -
        static_cast<std::size_t>(copier_fraction *
                                 static_cast<double>(data.db.num_sources())));
    RunningStats with_copier, independent_only;
    for (SourceId a = 0; a < data.db.num_sources(); ++a) {
      for (SourceId b = a + 1; b < data.db.num_sources(); ++b) {
        const double dep = with_copy.DependenceProbability(a, b);
        if (a >= independents || b >= independents) {
          with_copier.Add(dep);
        } else {
          independent_only.Add(dep);
        }
      }
    }
    table.AddRow({Num(copier_fraction * 100.0, 0) + "%",
                  Num(FusionAccuracy(plain_result, data.truth), 3),
                  Num(FusionAccuracy(copy_result, data.truth), 3),
                  Num(with_copier.count() ? with_copier.mean() : 0.0, 3),
                  Num(independent_only.mean(), 3),
                  Num(std::max(with_copier.max(), independent_only.max()),
                      3)});
  }
  table.Print(std::cout);
  std::cout << "(copier pairs light up while independent pairs stay near "
               "zero; fusion accuracy gains appear where cliques dominate "
               "items)\n";
  return 0;
}
