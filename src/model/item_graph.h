// The graph of data items (paper Figure 2): two items are adjacent when at
// least one source votes on both. Approx-MEU propagates validation impact to
// one-hop neighbours in this graph (Theorem 4.1 justifies the truncation);
// its kernel walks the same neighbourhoods straight over the session's
// CompiledDatabase (core/approx_meu.cc), so no strategy reads this class.
// perfbench still times its constructor (model.graph_build_s); the class
// and that metric can go together.
//
// Neighbour lists are computed on demand: for dense data (few sources, many
// items) materializing all adjacency lists would be quadratic in the number
// of items.
#ifndef VERITAS_MODEL_ITEM_GRAPH_H_
#define VERITAS_MODEL_ITEM_GRAPH_H_

#include <cstdint>
#include <vector>

#include "model/database.h"
#include "model/types.h"

namespace veritas {

/// On-demand one-hop neighbourhood queries over the item graph.
class ItemGraph {
 public:
  explicit ItemGraph(const Database& db);

  /// Fills `out` with the distinct items (excluding `item` itself) that share
  /// at least one source with `item`. Order is unspecified. Thread-safe: the
  /// dedup scratch is thread-local, so concurrent callers may query one
  /// shared graph without synchronizing.
  void CollectNeighbors(ItemId item, std::vector<ItemId>* out) const;

 private:
  const Database& db_;
};

}  // namespace veritas

#endif  // VERITAS_MODEL_ITEM_GRAPH_H_
