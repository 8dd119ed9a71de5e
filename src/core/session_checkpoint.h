// Checkpoint/resume for long feedback sessions. A session that asks a real
// expert for hundreds of validations runs for hours; if the process dies the
// acquired feedback must not die with it. A SessionCheckpoint serializes
// everything needed to continue *exactly* where the session stopped — the
// validated PriorSet, the per-step metrics recorded so far, the current
// FusionResult (so warm-started re-fusions resume from the identical state),
// the session Rng stream and any stateful oracle's fault schedule — to a
// versioned text file. Doubles round-trip bit-exactly (hex-float encoding),
// so a killed-and-resumed run produces a SessionTrace identical to an
// uninterrupted one under the same seed.
//
// Durability (format v2): the payload carries a CRC32C + length trailer, so
// truncation and bit flips are detected at load time instead of being parsed
// into garbage state. Saves rotate a recovery chain (`path` -> `path.1` ->
// `path.2`) before the atomic fsync'd replace; loads walk the chain and
// return the newest generation that verifies, so a corrupted head checkpoint
// costs at most the rounds between two saves, never the whole session.
#ifndef VERITAS_CORE_SESSION_CHECKPOINT_H_
#define VERITAS_CORE_SESSION_CHECKPOINT_H_

#include <string>
#include <vector>

#include "core/session.h"
#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/database.h"
#include "util/result.h"

namespace veritas {

/// Resumable snapshot of a FeedbackSession mid-run.
struct SessionCheckpoint {
  /// Bumped whenever the on-disk layout changes; loaders reject every other
  /// version, including v1 (no checksum trailer).
  static constexpr int kFormatVersion = 2;

  /// Previous on-disk generations kept as a recovery chain (`path.1`,
  /// `path.2`, ... up to this count).
  static constexpr int kRecoveryGenerations = 2;

  std::size_t num_validated = 0;
  double initial_distance = 0.0;
  double initial_uncertainty = 0.0;
  std::size_t total_oracle_retries = 0;
  std::size_t fusion_nonconverged_rounds = 0;
  std::size_t fusion_fallback_rounds = 0;
  std::vector<SessionStep> steps;
  std::vector<ItemId> skipped_items;
  PriorSet priors;
  /// The session's current (last-good) fusion output; resuming warm-starts
  /// from this instead of re-fusing cold, which keeps resumed traces
  /// bit-identical to uninterrupted ones.
  FusionResult fusion;
  /// Serialized session Rng engine ("" when the session has no Rng).
  std::string rng_state;
  /// Opaque oracle state (see FeedbackOracle::SerializeState; "").
  std::string oracle_state;
};

/// Writes `checkpoint` to `path` atomically (unique temp file + fsync +
/// rename + parent-directory fsync), so a crash at any point leaves either
/// the previous or the new checkpoint, never a torn one. Before the replace,
/// existing generations rotate down the recovery chain: `path` -> `path.1`
/// -> ... -> `path.<keep_generations>`. Pass keep_generations = 0 to disable
/// rotation (single-file behaviour of format v1).
Status SaveSessionCheckpoint(const SessionCheckpoint& checkpoint,
                             const std::string& path,
                             int keep_generations =
                                 SessionCheckpoint::kRecoveryGenerations);

/// Reads a checkpoint back. `db` validates item ids and claim counts — a
/// checkpoint only makes sense against the dataset that produced it.
/// Verifies the v2 checksum trailer, then walks the recovery chain (`path`,
/// `path.1`, `path.2`) on corruption or truncation and returns the newest
/// generation that verifies, bumping the `checkpoint.recovered` metric when
/// the head was not usable. NotFound when no generation exists;
/// InvalidArgument (the head's error) when generations exist but none
/// verifies.
Result<SessionCheckpoint> LoadSessionCheckpoint(const std::string& path,
                                                const Database& db);

}  // namespace veritas

#endif  // VERITAS_CORE_SESSION_CHECKPOINT_H_
