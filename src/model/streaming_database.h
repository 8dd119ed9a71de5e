// Streaming ingestion: a StreamingDatabase owns a Database plus its
// CompiledDatabase view and appends (source, item, value) observations in
// batches. Each batch
//   * is validated whole before anything is applied (a rejected batch leaves
//     the database, the view, the totals and the epoch untouched),
//   * mutates the Database in place (new items/sources/claims on demand,
//     every sorted invariant preserved, last-write-wins revisions),
//   * rebuilds the flat view in place when anything changed, which bumps
//     its epoch (a batch of pure duplicates keeps it),
//   * records which items/sources changed since the last TakeDirty.
// Readers holding `db()` / `compiled()` references stay valid across batches
// (both objects are updated in place); positional state *derived* from the
// view must pin the epoch it saw (see CompiledDatabase::CheckEpoch).
//
// Single-writer: AppendBatch/Compact must not race with readers. The
// feedback session interleaves ingest ticks with validation rounds on one
// thread; parallel lookahead workers only run between ticks.
#ifndef VERITAS_MODEL_STREAMING_DATABASE_H_
#define VERITAS_MODEL_STREAMING_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "model/compiled_database.h"
#include "model/database.h"
#include "model/types.h"
#include "util/result.h"

namespace veritas {

/// One timestamped observation in a stream.
struct StreamObservation {
  std::string source;
  std::string item;
  std::string value;
  double timestamp = 0.0;
};

/// One ground-truth disclosure in a stream. May reference an item that has
/// not arrived yet — consumers defer it (see FeedbackSession).
struct StreamTruth {
  std::string item;
  std::string value;
  double timestamp = 0.0;
};

/// One ingest batch: observations plus any truth rows disclosed up to the
/// batch horizon. AppendBatch applies only the observations; truths are the
/// caller's to apply (or defer).
struct IngestBatch {
  std::vector<StreamObservation> observations;
  std::vector<StreamTruth> truths;
};

/// Pull interface for a stream of batches. Next() fills `out` and returns
/// true, or returns false when the stream is exhausted (out untouched).
class ObservationFeed {
 public:
  virtual ~ObservationFeed() = default;
  virtual bool Next(IngestBatch* out) = 0;
};

/// Replays pre-sorted vectors of observations/truths as fixed-size batches.
/// Truth rows ride with the first batch whose horizon (last observation
/// timestamp) reaches them; leftovers flush with the final batch.
class VectorFeed : public ObservationFeed {
 public:
  VectorFeed(std::vector<StreamObservation> observations,
             std::vector<StreamTruth> truths, std::size_t batch_size);

  bool Next(IngestBatch* out) override;

 private:
  std::vector<StreamObservation> observations_;
  std::vector<StreamTruth> truths_;  // Sorted by timestamp.
  std::size_t batch_size_;
  std::size_t obs_pos_ = 0;
  std::size_t truth_pos_ = 0;
};

/// Per-batch ingest accounting.
struct IngestStats {
  std::size_t fresh = 0;       ///< Brand-new (source, item) votes.
  std::size_t revisions = 0;   ///< Last-write-wins rewrites of an existing vote.
  std::size_t duplicates = 0;  ///< Re-observations identical to the vote held.
  std::size_t new_items = 0;
  std::size_t new_sources = 0;
  std::size_t new_claims = 0;
};

/// Owner of a Database + CompiledDatabase pair that grows by appends.
class StreamingDatabase {
 public:
  explicit StreamingDatabase(Database db);

  const Database& db() const { return db_; }
  const CompiledDatabase& compiled() const { return compiled_; }
  std::uint64_t epoch() const { return compiled_.epoch(); }

  /// Applies one batch of observations (truth rows in the batch are ignored
  /// here — callers apply them). Returns per-batch counts. Fails only on
  /// malformed input (empty source/item/value), and then applies nothing.
  Result<IngestStats> AppendBatch(const IngestBatch& batch);

  /// Rebuilds the view from the database and bumps the epoch even when
  /// nothing changed.
  void Compact();

  /// Moves the accumulated dirty sets (sorted, unique) out, clearing them.
  /// Dirty = items/sources whose votes or claim sets changed since the last
  /// TakeDirty; duplicates do not dirty anything.
  void TakeDirty(std::vector<ItemId>* items, std::vector<SourceId>* sources);

  /// Lifetime totals across all batches.
  const IngestStats& totals() const { return totals_; }

 private:
  ItemId InternItem(const std::string& name, IngestStats* stats);
  SourceId InternSource(const std::string& name, IngestStats* stats);

  Database db_;
  CompiledDatabase compiled_;
  IngestStats totals_;
  std::unordered_set<ItemId> dirty_items_;
  std::unordered_set<SourceId> dirty_sources_;
};

}  // namespace veritas

#endif  // VERITAS_MODEL_STREAMING_DATABASE_H_
