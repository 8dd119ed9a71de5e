#include "model/compiled_database.h"

#include <atomic>
#include <cmath>
#include <string>

namespace veritas {

namespace {

double LogFalseValues(std::size_t num_claims) {
  return num_claims > 1 ? std::log(static_cast<double>(num_claims) - 1.0)
                        : 0.0;
}

std::atomic<std::uint64_t> g_next_view_id{1};

}  // namespace

CompiledDatabase::CompiledDatabase(const Database& db)
    : id_(g_next_view_id.fetch_add(1, std::memory_order_relaxed)) {
  Build(db);
}

void CompiledDatabase::Build(const Database& db) {
  num_items_ = db.num_items();
  num_sources_ = db.num_sources();
  num_claims_ = db.num_claims();
  num_observations_ = db.num_observations();

  claim_offsets_.clear();
  log_false_values_.clear();
  claim_source_offsets_.clear();
  claim_sources_.clear();
  item_vote_offsets_.clear();
  item_vote_sources_.clear();
  item_vote_claims_.clear();
  source_vote_offsets_.clear();
  source_vote_items_.clear();
  source_vote_claims_.clear();

  claim_offsets_.reserve(num_items_ + 1);
  log_false_values_.reserve(num_items_);
  claim_source_offsets_.reserve(num_claims_ + 1);
  claim_sources_.reserve(num_observations_);
  item_vote_offsets_.reserve(num_items_ + 1);
  item_vote_sources_.reserve(num_observations_);
  item_vote_claims_.reserve(num_observations_);

  claim_offsets_.push_back(0);
  claim_source_offsets_.push_back(0);
  item_vote_offsets_.push_back(0);
  for (ItemId i = 0; i < num_items_; ++i) {
    const Item& o = db.item(i);
    claim_offsets_.push_back(claim_offsets_.back() +
                             static_cast<std::uint32_t>(o.claims.size()));
    log_false_values_.push_back(LogFalseValues(o.claims.size()));
    for (const Claim& c : o.claims) {
      claim_sources_.insert(claim_sources_.end(), c.sources.begin(),
                            c.sources.end());
      claim_source_offsets_.push_back(
          static_cast<std::uint32_t>(claim_sources_.size()));
    }
    for (const ItemVote& iv : db.item_votes(i)) {
      item_vote_sources_.push_back(iv.source);
      item_vote_claims_.push_back(iv.claim);
    }
    item_vote_offsets_.push_back(
        static_cast<std::uint32_t>(item_vote_sources_.size()));
  }

  source_vote_offsets_.reserve(num_sources_ + 1);
  source_vote_items_.reserve(num_observations_);
  source_vote_claims_.reserve(num_observations_);
  source_vote_offsets_.push_back(0);
  for (SourceId j = 0; j < num_sources_; ++j) {
    for (const Vote& v : db.source(j).votes) {
      source_vote_items_.push_back(v.item);
      source_vote_claims_.push_back(claim_offsets_[v.item] + v.claim);
    }
    source_vote_offsets_.push_back(
        static_cast<std::uint32_t>(source_vote_items_.size()));
  }
}

Status CompiledDatabase::CheckEpoch(std::uint64_t expected) const {
  if (expected == epoch_) return Status::OK();
  return Status::FailedPrecondition(
      "stale compiled-database view: expected epoch " +
      std::to_string(expected) + " but view is at epoch " +
      std::to_string(epoch_));
}

void CompiledDatabase::Rebuild(const Database& db) {
  Build(db);
  ++epoch_;
}

}  // namespace veritas
