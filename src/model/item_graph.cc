#include "model/item_graph.h"

namespace veritas {

ItemGraph::ItemGraph(const Database& db) : db_(db) {}

void ItemGraph::CollectNeighbors(ItemId item, std::vector<ItemId>* out) const {
  // Visit stamps deduplicate neighbours without clearing an array per query.
  // The scratch is thread-local (cached per graph) rather than a mutable
  // member: parallel lookahead lanes all query one shared graph, and a
  // shared stamp array would be both a data race and a correctness bug
  // (interleaved stamps drop or duplicate neighbours).
  struct Scratch {
    const ItemGraph* owner = nullptr;
    std::vector<std::uint32_t> stamp;
    std::uint32_t current = 0;
  };
  thread_local Scratch scratch;
  if (scratch.owner != this || scratch.stamp.size() != db_.num_items()) {
    scratch.owner = this;
    scratch.stamp.assign(db_.num_items(), 0);
    scratch.current = 0;
  }
  if (++scratch.current == 0) {  // Stamp wrap: start a fresh epoch.
    scratch.stamp.assign(db_.num_items(), 0);
    scratch.current = 1;
  }
  out->clear();
  scratch.stamp[item] = scratch.current;  // Exclude self.
  for (const ItemVote& iv : db_.item_votes(item)) {
    for (const Vote& vote : db_.source(iv.source).votes) {
      if (scratch.stamp[vote.item] != scratch.current) {
        scratch.stamp[vote.item] = scratch.current;
        out->push_back(vote.item);
      }
    }
  }
}

}  // namespace veritas
