#include "model/streaming_database.h"

#include <algorithm>
#include <cassert>

namespace veritas {

VectorFeed::VectorFeed(std::vector<StreamObservation> observations,
                       std::vector<StreamTruth> truths,
                       std::size_t batch_size)
    : observations_(std::move(observations)),
      truths_(std::move(truths)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {
  std::stable_sort(truths_.begin(), truths_.end(),
                   [](const StreamTruth& a, const StreamTruth& b) {
                     return a.timestamp < b.timestamp;
                   });
}

bool VectorFeed::Next(IngestBatch* out) {
  if (obs_pos_ >= observations_.size() && truth_pos_ >= truths_.size()) {
    return false;
  }
  out->observations.clear();
  out->truths.clear();
  const std::size_t end =
      std::min(obs_pos_ + batch_size_, observations_.size());
  double horizon = 0.0;
  for (; obs_pos_ < end; ++obs_pos_) {
    horizon = observations_[obs_pos_].timestamp;
    out->observations.push_back(observations_[obs_pos_]);
  }
  const bool last = obs_pos_ >= observations_.size();
  while (truth_pos_ < truths_.size() &&
         (last || truths_[truth_pos_].timestamp <= horizon)) {
    out->truths.push_back(truths_[truth_pos_]);
    ++truth_pos_;
  }
  return true;
}

StreamingDatabase::StreamingDatabase(Database db)
    : db_(std::move(db)), compiled_(db_) {}

ItemId StreamingDatabase::InternItem(const std::string& name,
                                     IngestStats* stats) {
  const auto it = db_.item_index_.find(name);
  if (it != db_.item_index_.end()) return it->second;
  const ItemId id = static_cast<ItemId>(db_.items_.size());
  db_.items_.push_back(Item{name, {}});
  db_.item_votes_.emplace_back();
  db_.item_index_.emplace(name, id);
  ++stats->new_items;
  dirty_items_.insert(id);
  return id;
}

SourceId StreamingDatabase::InternSource(const std::string& name,
                                         IngestStats* stats) {
  const auto it = db_.source_index_.find(name);
  if (it != db_.source_index_.end()) return it->second;
  const SourceId id = static_cast<SourceId>(db_.sources_.size());
  db_.sources_.push_back(Source{name, {}});
  db_.source_index_.emplace(name, id);
  ++stats->new_sources;
  dirty_sources_.insert(id);
  return id;
}

Result<IngestStats> StreamingDatabase::AppendBatch(const IngestBatch& batch) {
  // Validate the whole batch first: a rejected batch applies nothing.
  for (const StreamObservation& obs : batch.observations) {
    if (obs.source.empty() || obs.item.empty() || obs.value.empty()) {
      return Status::InvalidArgument(
          "stream observation with empty source/item/value");
    }
  }

  IngestStats stats;
  for (const StreamObservation& obs : batch.observations) {
    const ItemId i = InternItem(obs.item, &stats);
    const SourceId j = InternSource(obs.source, &stats);
    Item& item = db_.items_[i];

    // Find or create the claim for this value.
    ClaimIndex claim = kInvalidClaim;
    for (ClaimIndex k = 0; k < item.claims.size(); ++k) {
      if (item.claims[k].value == obs.value) {
        claim = k;
        break;
      }
    }
    if (claim == kInvalidClaim) {
      claim = static_cast<ClaimIndex>(item.claims.size());
      item.claims.push_back(Claim{obs.value, {}});
      ++db_.num_claims_;
      ++stats.new_claims;
      dirty_items_.insert(i);
    }

    // Locate the source's existing vote on this item, if any.
    std::vector<Vote>& votes = db_.sources_[j].votes;
    const auto vpos = std::lower_bound(
        votes.begin(), votes.end(), i,
        [](const Vote& v, ItemId target) { return v.item < target; });
    if (vpos != votes.end() && vpos->item == i) {
      if (vpos->claim == claim) {
        ++stats.duplicates;  // Idempotent re-observation: no-op.
        continue;
      }
      // Last-write-wins revision: rewrite the vote in place, move the
      // source's support between the claim source lists, rewrite the item's
      // vote entry.
      const ClaimIndex old_claim = vpos->claim;
      vpos->claim = claim;
      std::vector<SourceId>& old_sources = item.claims[old_claim].sources;
      const auto spos =
          std::lower_bound(old_sources.begin(), old_sources.end(), j);
      assert(spos != old_sources.end() && *spos == j);
      old_sources.erase(spos);
      std::vector<SourceId>& new_sources = item.claims[claim].sources;
      new_sources.insert(
          std::lower_bound(new_sources.begin(), new_sources.end(), j), j);
      std::vector<ItemVote>& ivotes = db_.item_votes_[i];
      const auto ipos = std::lower_bound(
          ivotes.begin(), ivotes.end(), j,
          [](const ItemVote& v, SourceId target) { return v.source < target; });
      assert(ipos != ivotes.end() && ipos->source == j);
      ipos->claim = claim;
      ++stats.revisions;
    } else {
      // Fresh vote: sorted insertion into all three Database indexes.
      votes.insert(vpos, Vote{i, claim});
      std::vector<SourceId>& sources = item.claims[claim].sources;
      sources.insert(std::lower_bound(sources.begin(), sources.end(), j), j);
      std::vector<ItemVote>& ivotes = db_.item_votes_[i];
      ivotes.insert(
          std::lower_bound(ivotes.begin(), ivotes.end(), j,
                           [](const ItemVote& v, SourceId target) {
                             return v.source < target;
                           }),
          ItemVote{j, claim});
      ++db_.num_observations_;
      ++stats.fresh;
    }
    dirty_items_.insert(i);
    dirty_sources_.insert(j);
  }

  // Every new item, source or claim arrives with a fresh vote or a revision.
  // A batch of pure duplicates changes nothing — keep the epoch (and every
  // derived base state) valid rather than invalidating readers for a no-op.
  if (stats.fresh + stats.revisions > 0) {
    compiled_.Rebuild(db_);
  }

  totals_.fresh += stats.fresh;
  totals_.revisions += stats.revisions;
  totals_.duplicates += stats.duplicates;
  totals_.new_items += stats.new_items;
  totals_.new_sources += stats.new_sources;
  totals_.new_claims += stats.new_claims;
  return stats;
}

void StreamingDatabase::Compact() { compiled_.Rebuild(db_); }

void StreamingDatabase::TakeDirty(std::vector<ItemId>* items,
                                  std::vector<SourceId>* sources) {
  items->assign(dirty_items_.begin(), dirty_items_.end());
  std::sort(items->begin(), items->end());
  sources->assign(dirty_sources_.begin(), dirty_sources_.end());
  std::sort(sources->begin(), sources->end());
  dirty_items_.clear();
  dirty_sources_.clear();
}

}  // namespace veritas
