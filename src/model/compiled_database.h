// CompiledDatabase: a flat CSR (compressed sparse row) view of a Database,
// built once and shared by all fusion inner loops. The nested
// vector<vector> layout of Database is convenient for construction and
// random access, but iterating it chases one heap pointer per item/claim/
// source list; fusion models and the DeltaFusion engine instead stream over
// the contiguous arrays here.
//
// Three parallel CSR indexes over the same observation set:
//   * claim -> sources:  which sources vote for claim g (global claim id),
//   * item  -> votes:    (source, claim) pairs cast on item i,
//   * source -> votes:   (item, claim) pairs cast by source j.
// Claims are addressed by a global claim id g = claim_offset(i) + k, so a
// probability table indexed by g is a single flat array.
//
// A view that follows a growing database (StreamingDatabase) is rebuilt in
// place from the Database after every batch that changed it. Every Rebuild
// bumps the epoch; readers that derived positional state from the view
// (DeltaFusionEngine base states, shard partitions) pin the epoch they saw
// and fail loudly on mismatch instead of reading through a moved layout.
#ifndef VERITAS_MODEL_COMPILED_DATABASE_H_
#define VERITAS_MODEL_COMPILED_DATABASE_H_

#include <cstdint>
#include <vector>

#include "model/database.h"
#include "model/types.h"
#include "util/status.h"

namespace veritas {

/// Flat-array view of a Database. The Database must outlive it only for
/// construction/Rebuild calls; the view owns all its arrays.
class CompiledDatabase {
 public:
  explicit CompiledDatabase(const Database& db);

  std::size_t num_items() const { return num_items_; }
  std::size_t num_sources() const { return num_sources_; }
  std::size_t num_claims() const { return num_claims_; }
  std::size_t num_observations() const { return num_observations_; }

  // ---------------------------------------------------------------------
  // Epoch.

  /// Monotonic view generation: bumped by every Rebuild.
  std::uint64_t epoch() const { return epoch_; }
  /// OK when the view still is at `expected`; FailedPrecondition otherwise.
  /// Readers that flattened the view at some epoch call this before touching
  /// positional state derived from it (see DeltaFusionEngine::BaseState).
  Status CheckEpoch(std::uint64_t expected) const;

  /// Rebuilds every array from `db` in place and bumps the epoch (ids of
  /// claims and CSR slots may all have moved).
  void Rebuild(const Database& db);

  // ---------------------------------------------------------------------
  // Item / claim addressing.

  /// Global claim id of claim 0 of item i; its claims are the contiguous run
  /// [claim_offset(i), claim_offset(i) + item_num_claims(i)).
  std::uint32_t claim_offset(ItemId i) const { return claim_offsets_[i]; }
  std::size_t item_num_claims(ItemId i) const {
    return claim_offsets_[i + 1] - claim_offsets_[i];
  }
  /// ln(|V_i| - 1) — the false-value factor of Accu's Eq. (1); 0 for
  /// single-claim items (never used there).
  double log_false_values(ItemId i) const { return log_false_values_[i]; }

  // ---------------------------------------------------------------------
  // CSR ranges.

  /// Sources voting for global claim g: [claim_sources_begin(g),
  /// claim_sources_end(g)) into claim_sources().
  std::uint32_t claim_sources_begin(std::uint32_t g) const {
    return claim_source_offsets_[g];
  }
  std::uint32_t claim_sources_end(std::uint32_t g) const {
    return claim_source_offsets_[g + 1];
  }
  const std::vector<SourceId>& claim_sources() const { return claim_sources_; }

  /// Votes on item i: [item_votes_begin(i), item_votes_end(i)) into the
  /// parallel arrays item_vote_sources() / item_vote_claims() (claim indices
  /// are local to the item).
  std::uint32_t item_votes_begin(ItemId i) const { return item_vote_offsets_[i]; }
  std::uint32_t item_votes_end(ItemId i) const {
    return item_vote_offsets_[i + 1];
  }
  const std::vector<SourceId>& item_vote_sources() const {
    return item_vote_sources_;
  }
  const std::vector<ClaimIndex>& item_vote_claims() const {
    return item_vote_claims_;
  }

  /// Votes by source j: [source_votes_begin(j), source_votes_end(j)) into the
  /// parallel arrays source_vote_items() / source_vote_claims(). The claim
  /// entries are *global* claim ids, so a flat probability table can be
  /// indexed directly.
  std::uint32_t source_votes_begin(SourceId j) const {
    return source_vote_offsets_[j];
  }
  std::uint32_t source_votes_end(SourceId j) const {
    return source_vote_offsets_[j + 1];
  }
  const std::vector<ItemId>& source_vote_items() const {
    return source_vote_items_;
  }
  const std::vector<std::uint32_t>& source_vote_claims() const {
    return source_vote_claims_;
  }

  /// N(s_j): number of items source j votes on.
  std::size_t source_degree(SourceId j) const {
    return source_vote_offsets_[j + 1] - source_vote_offsets_[j];
  }

  // ---------------------------------------------------------------------
  // Range iteration.

  /// f(SourceId, ClaimIndex /*local*/) for every vote on item i.
  template <typename F>
  void ForEachItemVote(ItemId i, F&& f) const {
    for (std::uint32_t v = item_vote_offsets_[i]; v < item_vote_offsets_[i + 1];
         ++v) {
      f(item_vote_sources_[v], item_vote_claims_[v]);
    }
  }

  /// f(ItemId, std::uint32_t /*global claim id*/) for every vote by source j.
  template <typename F>
  void ForEachSourceVote(SourceId j, F&& f) const {
    for (std::uint32_t v = source_vote_offsets_[j];
         v < source_vote_offsets_[j + 1]; ++v) {
      f(source_vote_items_[v], source_vote_claims_[v]);
    }
  }

 private:
  void Build(const Database& db);

  std::size_t num_items_ = 0;
  std::size_t num_sources_ = 0;
  std::size_t num_claims_ = 0;
  std::size_t num_observations_ = 0;
  std::uint64_t epoch_ = 0;

  std::vector<std::uint32_t> claim_offsets_;         // num_items + 1
  std::vector<double> log_false_values_;             // num_items
  std::vector<std::uint32_t> claim_source_offsets_;  // num_claims + 1
  std::vector<SourceId> claim_sources_;              // num_observations
  std::vector<std::uint32_t> item_vote_offsets_;     // num_items + 1
  std::vector<SourceId> item_vote_sources_;          // num_observations
  std::vector<ClaimIndex> item_vote_claims_;         // num_observations
  std::vector<std::uint32_t> source_vote_offsets_;   // num_sources + 1
  std::vector<ItemId> source_vote_items_;            // num_observations
  std::vector<std::uint32_t> source_vote_claims_;    // num_observations
};

}  // namespace veritas

#endif  // VERITAS_MODEL_COMPILED_DATABASE_H_
