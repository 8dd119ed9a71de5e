#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/metrics.h"
#include "core/session_checkpoint.h"
#include "fusion/delta_fusion.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace veritas {

namespace {

/// Failures a degraded session survives by skipping the item: the oracle was
/// unreachable, ran out of (retry) time, or explicitly declined. Everything
/// else — unknown ground truth, out-of-range ids, internal errors — signals
/// a misconfigured run and still aborts.
bool IsSkippableOracleFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kAbstained;
}

std::string SerializeRngState(Rng* rng) {
  if (rng == nullptr) return "";
  std::ostringstream out;
  out << rng->engine();
  return out.str();
}

Status RestoreRngState(Rng* rng, const std::string& state) {
  if (state.empty()) return Status::OK();
  if (rng == nullptr) {
    return Status::FailedPrecondition(
        "checkpoint has an Rng state but the session has no Rng");
  }
  std::istringstream in(state);
  if (!(in >> rng->engine())) {
    return Status::InvalidArgument("checkpoint: bad session Rng state");
  }
  return Status::OK();
}

std::size_t ApproxVectorBytes(const std::vector<double>& v) {
  return sizeof(v) + v.capacity() * sizeof(double);
}

std::size_t ApproxFusionBytes(const FusionResult& fusion) {
  return ApproxVectorBytes(fusion.accuracies()) +
         fusion.probs().size() * sizeof(double) +
         (fusion.num_items() + 1) * sizeof(std::uint32_t);
}

/// Approximate resident bytes of the session's dominant heap state: the
/// recorded trace (steps + priors) and the live fusion posteriors (counted
/// twice — current result plus the in-flight re-fusion that momentarily
/// coexists with it). Deterministic for a given trace, so the same session
/// always evicts at the same round (see util/resource_budget.h).
std::size_t ApproxSessionBytes(const SessionTrace& trace,
                               const FusionResult& fusion) {
  std::size_t bytes = sizeof(SessionTrace);
  for (const SessionStep& step : trace.steps) {
    bytes += sizeof(SessionStep) +
             (step.items.capacity() + step.skipped.capacity()) *
                 sizeof(ItemId);
  }
  bytes += trace.skipped_items.capacity() * sizeof(ItemId);
  // Unordered-map node + key + vector header + payload per pinned prior.
  for (const auto& entry : trace.priors) {
    bytes += 64 + ApproxVectorBytes(entry.second);
  }
  return bytes + 2 * ApproxFusionBytes(fusion);
}

}  // namespace

double SessionTrace::DistanceReductionPercent(std::size_t idx) const {
  if (idx >= steps.size() || initial_distance == 0.0) return 0.0;
  return (steps[idx].distance - initial_distance) / initial_distance * 100.0;
}

double SessionTrace::UncertaintyReductionPercent(std::size_t idx) const {
  if (idx >= steps.size() || initial_uncertainty == 0.0) return 0.0;
  return (steps[idx].uncertainty - initial_uncertainty) /
         initial_uncertainty * 100.0;
}

double SessionTrace::MeanSelectSeconds() const {
  if (steps.empty()) return 0.0;
  double total = 0.0;
  for (const SessionStep& s : steps) total += s.select_seconds;
  return total / static_cast<double>(steps.size());
}

FeedbackSession::FeedbackSession(const Database& db, const FusionModel& model,
                                 Strategy* strategy, FeedbackOracle* oracle,
                                 const GroundTruth& truth,
                                 SessionOptions options, Rng* rng)
    : db_(db),
      model_(model),
      strategy_(strategy),
      oracle_(oracle),
      truth_(truth),
      options_(options),
      rng_(rng) {}

Result<SessionTrace> FeedbackSession::Run() {
  VERITAS_SPAN("session.run");
  // Per-phase instruments (Table 11/12 breakdowns): cached once, one atomic
  // op / histogram observe per round afterwards.
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* rounds_counter = reg.GetCounter("session.rounds");
  static Counter* validated_counter = reg.GetCounter("session.items_validated");
  static Counter* skipped_counter = reg.GetCounter("session.items_skipped");
  static Counter* retries_counter = reg.GetCounter("session.oracle_retries");
  static Counter* nonconverged_counter =
      reg.GetCounter("session.fusion_nonconverged_rounds");
  static Counter* fallback_counter =
      reg.GetCounter("session.fusion_fallback_rounds");
  static Histogram* step_hist = reg.GetHistogram("session.step_seconds");
  // Per-tenant round timings (not static: the label differs per session).
  Histogram* tenant_step_hist =
      options_.metrics_label.empty()
          ? nullptr
          : reg.GetHistogram("session.step_seconds." + options_.metrics_label);
  static Histogram* select_hist = reg.GetHistogram("session.select_seconds");
  static Histogram* oracle_hist = reg.GetHistogram("session.oracle_seconds");
  static Histogram* fuse_hist = reg.GetHistogram("session.fuse_seconds");
  static Histogram* metrics_hist = reg.GetHistogram("session.metrics_seconds");
  static Histogram* checkpoint_hist =
      reg.GetHistogram("session.checkpoint_seconds");
  static Counter* interrupted_counter =
      reg.GetCounter("session.interrupted_runs");
  static Counter* evicted_counter =
      reg.GetCounter("session.evicted_runs");
  // Streaming ingest instruments (see DESIGN.md §5g). The epoch gauge tracks
  // the live view generation; accuracy drift is the L-infinity move of the
  // shared accuracy prefix across one ingest tick (how hard each batch
  // shakes the model); the staleness histogram is the wall time from batch
  // receipt to the re-fused state that includes it.
  static Counter* ingest_obs_counter = reg.GetCounter("ingest.observations");
  static Counter* ingest_rev_counter = reg.GetCounter("ingest.revisions");
  static Counter* ingest_dup_counter = reg.GetCounter("ingest.duplicates");
  static Counter* ingest_batches_counter = reg.GetCounter("ingest.batches");
  static Counter* truth_applied_counter =
      reg.GetCounter("ingest.truth_applied");
  static Counter* truth_deferred_counter =
      reg.GetCounter("ingest.truth_deferred");
  static Gauge* epoch_gauge = reg.GetGauge("ingest.epoch");
  static Gauge* drift_gauge = reg.GetGauge("ingest.accuracy_drift");
  static Histogram* staleness_hist =
      reg.GetHistogram("ingest.staleness_seconds");

  const StreamingSessionConfig& streaming = options_.streaming;
  if (streaming.active()) {
    if (streaming.feed == nullptr || streaming.truth == nullptr) {
      return Status::InvalidArgument(
          "streaming session: feed and truth are required");
    }
    if (&streaming.stream->db() != &db_) {
      return Status::InvalidArgument(
          "streaming session: stream->db() must be the session database");
    }
    if (streaming.truth != &truth_) {
      return Status::InvalidArgument(
          "streaming session: streaming.truth must alias the session truth");
    }
    if (!options_.checkpoint_path.empty() || !options_.resume_path.empty()) {
      return Status::InvalidArgument(
          "streaming session: checkpoint/resume is not supported (a "
          "checkpoint snapshots fusion state against a fixed database)");
    }
  }

  SessionTrace trace;
  strategy_->Reset();
  // The session's one compiled view, given to every reader: the strategies
  // through StrategyContext::compiled and the delta engine. A frozen
  // database is compiled once here; a stream's live view is rebuilt by
  // AppendBatch after every changing batch.
  std::optional<CompiledDatabase> frozen_view;
  if (!streaming.active()) frozen_view.emplace(db_);
  const CompiledDatabase& compiled =
      streaming.active() ? streaming.stream->compiled() : *frozen_view;

  // Cooperative stop plumbing: the fusion models and strategies see the
  // same token, so a hard stop drains the inner loops promptly while a
  // graceful stop (or deadline expiry) waits for the round boundary.
  options_.fusion.cancel = options_.cancel;
  const auto graceful_stop = [this] {
    return StopRequested(options_.cancel) || options_.deadline.expired();
  };
  const auto hard_stop = [this] {
    return HardStopRequested(options_.cancel);
  };

  // Incremental engine for the strategies' lookaheads. Null when the model
  // has no local-update structure (AccuCopy, LCA, ...) or when delta fusion
  // is disabled; cold-started sessions also stay on the full path (the base
  // state the engine propagates from must be the converged warm state).
  const std::unique_ptr<DeltaFusionEngine> delta =
      options_.warm_start && options_.fusion.use_delta_fusion
          ? DeltaFusionEngine::Create(compiled, model_, options_.fusion)
          : nullptr;
  // The lookaheads propagate from `fusion` as a state converged under every
  // prior. A warm-start rollback (a non-finite re-fusion) breaks that
  // invariant until a re-fusion lands again; until then the strategies
  // re-fuse fully.
  bool delta_base_valid = true;

  std::unordered_set<ItemId> skipped_set;
  std::size_t validated = 0;
  FusionResult fusion;
  bool resumed = false;

  if (!options_.resume_path.empty()) {
    auto loaded = LoadSessionCheckpoint(options_.resume_path, db_);
    if (loaded.ok()) {
      SessionCheckpoint cp = std::move(loaded).value();
      trace.initial_distance = cp.initial_distance;
      trace.initial_uncertainty = cp.initial_uncertainty;
      trace.steps = std::move(cp.steps);
      trace.skipped_items = std::move(cp.skipped_items);
      trace.total_oracle_retries = cp.total_oracle_retries;
      trace.fusion_nonconverged_rounds = cp.fusion_nonconverged_rounds;
      trace.fusion_fallback_rounds = cp.fusion_fallback_rounds;
      trace.priors = std::move(cp.priors);
      skipped_set.insert(trace.skipped_items.begin(),
                         trace.skipped_items.end());
      validated = cp.num_validated;
      // Resume from the checkpointed fusion state verbatim instead of
      // re-fusing: warm-started rounds then continue bit-identically to the
      // uninterrupted run.
      fusion = std::move(cp.fusion);
      VERITAS_RETURN_IF_ERROR(RestoreRngState(rng_, cp.rng_state));
      VERITAS_RETURN_IF_ERROR(oracle_->RestoreState(cp.oracle_state));
      resumed = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();  // Corrupt checkpoint: refuse to guess.
    }
    // NotFound: fresh start with the same flags.
  }

  // Every re-fusion — after a validation round and after a streaming tick —
  // is this one call. A warm result from before an append is a legal warm
  // start: appended sources start at the initial accuracy
  // (WarmStartAccuracies).
  const auto refuse = [&] {
    return model_.Fuse(compiled, trace.priors, options_.fusion,
                       options_.warm_start ? &fusion : nullptr);
  };

  if (!resumed) {
    fusion = model_.Fuse(compiled, trace.priors, options_.fusion);
    trace.initial_distance = DistanceToGroundTruth(db_, fusion, truth_);
    trace.initial_uncertainty = Uncertainty(fusion);
  }
  // Rounds recorded before this process run started; the budget's per-run
  // quota (and its one-round-of-progress guarantee) counts from here.
  const std::size_t resumed_rounds = trace.steps.size();

  std::size_t rounds_since_checkpoint = 0;
  // Whether the in-memory trace has advanced past what is on disk. Keeps a
  // graceful stop from rotating a duplicate snapshot through the recovery
  // chain when the forced checkpoint would rewrite identical state.
  bool checkpoint_dirty = true;
  const auto maybe_checkpoint = [&](bool force) -> Status {
    if (options_.checkpoint_path.empty()) return Status::OK();
    if (!force &&
        ++rounds_since_checkpoint < options_.checkpoint_every_rounds) {
      return Status::OK();
    }
    if (!checkpoint_dirty) return Status::OK();
    rounds_since_checkpoint = 0;
    VERITAS_SPAN("session.checkpoint");
    Timer checkpoint_timer;
    SessionCheckpoint cp;
    cp.num_validated = validated;
    cp.initial_distance = trace.initial_distance;
    cp.initial_uncertainty = trace.initial_uncertainty;
    cp.total_oracle_retries = trace.total_oracle_retries;
    cp.fusion_nonconverged_rounds = trace.fusion_nonconverged_rounds;
    cp.fusion_fallback_rounds = trace.fusion_fallback_rounds;
    cp.steps = trace.steps;
    cp.skipped_items = trace.skipped_items;
    cp.priors = trace.priors;
    cp.fusion = fusion;
    cp.rng_state = SerializeRngState(rng_);
    cp.oracle_state = oracle_->SerializeState();
    const Status status = SaveSessionCheckpoint(cp, options_.checkpoint_path);
    checkpoint_hist->Observe(checkpoint_timer.ElapsedSeconds());
    if (status.ok()) checkpoint_dirty = false;
    return status;
  };

  // --- Streaming ingest tick -------------------------------------------
  // One batch per validation round (progress guarantee: either the feed
  // yields a batch or it is exhausted — an empty candidate pool with a live
  // feed loops back here, never spins). Truth rows that reference items not
  // yet streamed are deferred and retried after every later batch.
  std::deque<StreamTruth> deferred_truths;
  bool feed_live = streaming.active();
  const auto ingest_tick = [&]() -> Status {
    if (!feed_live) return Status::OK();
    IngestBatch batch;
    if (!streaming.feed->Next(&batch)) {
      feed_live = false;
      return Status::OK();
    }
    VERITAS_SPAN("session.ingest");
    // Fusion staleness: wall time from batch receipt until the fused state
    // reflecting it is in place.
    Timer staleness_timer;
    VERITAS_ASSIGN_OR_RETURN(const IngestStats stats,
                             streaming.stream->AppendBatch(batch));
    ++trace.ingest_batches;
    ingest_batches_counter->Add(1);
    trace.ingested_observations += stats.fresh;
    ingest_obs_counter->Add(stats.fresh);
    trace.ingest_revisions += stats.revisions;
    ingest_rev_counter->Add(stats.revisions);
    ingest_dup_counter->Add(stats.duplicates);

    // Apply truth: earlier deferrals first (their items may have just
    // arrived), then this batch's rows; failures go back on the queue.
    for (const StreamTruth& t : batch.truths) deferred_truths.push_back(t);
    const std::size_t pending = deferred_truths.size();
    for (std::size_t n = 0; n < pending; ++n) {
      StreamTruth t = std::move(deferred_truths.front());
      deferred_truths.pop_front();
      if (streaming.truth->SetByValue(db_, t.item, t.value).ok()) {
        ++trace.truths_applied;
        truth_applied_counter->Add(1);
      } else {
        deferred_truths.push_back(std::move(t));
      }
    }

    // Validated items stay pinned across epochs: a pin on an item that just
    // gained claims is zero-extended (the verdict stands; the late claim
    // gets probability 0).
    trace.priors.ExtendForNewClaims(db_);

    std::vector<ItemId> dirty_items;
    std::vector<SourceId> dirty_sources;
    streaming.stream->TakeDirty(&dirty_items, &dirty_sources);
    if (!dirty_items.empty() || !dirty_sources.empty()) {
      const std::vector<double> acc_before = fusion.accuracies();
      FusionResult next = refuse();
      if (!next.AllFinite()) {
        return Status::Internal(
            "streaming re-fusion produced non-finite values");
      }
      fusion = std::move(next);
      delta_base_valid = true;
      // Accuracy drift: the L-infinity move of the shared accuracy prefix —
      // how hard this batch shook the source model.
      double drift = 0.0;
      const std::vector<double>& acc_after = fusion.accuracies();
      const std::size_t shared = std::min(acc_before.size(), acc_after.size());
      for (std::size_t j = 0; j < shared; ++j) {
        drift = std::max(drift, std::fabs(acc_after[j] - acc_before[j]));
      }
      drift_gauge->Set(drift);
    }
    trace.final_epoch = streaming.stream->epoch();
    epoch_gauge->Set(static_cast<double>(trace.final_epoch));
    staleness_hist->Observe(staleness_timer.ElapsedSeconds());
    return Status::OK();
  };

  // Builds the DeadlineExceeded status every stop path returns. Mentions the
  // resume point so an operator (or the CLI) can relay it.
  const auto interrupted = [&]() -> Status {
    interrupted_counter->Add(1);
    std::ostringstream msg;
    msg << "session interrupted (" << DescribeStop(options_.cancel,
                                                   options_.deadline)
        << ") after " << validated << " validations";
    if (!options_.checkpoint_path.empty()) {
      msg << "; resumable checkpoint at " << options_.checkpoint_path;
    } else {
      msg << "; no checkpoint path configured, progress was not persisted";
    }
    return Status::DeadlineExceeded(msg.str());
  };

  while (validated < options_.max_validations) {
    // Graceful stop (first signal, or deadline expiry): observed only here,
    // at the round boundary, so every recorded round is bit-identical to the
    // uninterrupted run and the forced checkpoint resumes it exactly.
    if (graceful_stop()) {
      VERITAS_RETURN_IF_ERROR(maybe_checkpoint(/*force=*/true));
      return interrupted();
    }
    // Resource budget: graceful eviction-to-checkpoint, only once at least
    // one round has completed this run (guaranteed progress per admission).
    if (options_.budget.limited() &&
        trace.steps.size() > resumed_rounds) {
      ResourceUsage usage;
      usage.rounds_this_run = trace.steps.size() - resumed_rounds;
      usage.approx_bytes = ApproxSessionBytes(trace, fusion);
      const BudgetVerdict verdict = CheckBudget(options_.budget, usage);
      if (verdict != BudgetVerdict::kWithin) {
        VERITAS_RETURN_IF_ERROR(maybe_checkpoint(/*force=*/true));
        evicted_counter->Add(1);
        std::ostringstream msg;
        msg << "session evicted ("
            << DescribeBudgetBreach(verdict, options_.budget, usage)
            << ") after " << validated << " validations";
        if (!options_.checkpoint_path.empty()) {
          msg << "; resumable checkpoint at " << options_.checkpoint_path;
        } else {
          msg << "; no checkpoint path configured, progress was not"
                 " persisted";
        }
        return Status::ResourceExhausted(msg.str());
      }
    }

    // Streaming: ingest one batch before selecting, so the strategy ranks
    // candidates against the freshest fused view.
    VERITAS_RETURN_IF_ERROR(ingest_tick());

    StrategyContext ctx;
    ctx.db = &db_;
    ctx.compiled = &compiled;
    ctx.fusion = &fusion;
    ctx.priors = &trace.priors;
    ctx.model = &model_;
    ctx.fusion_opts = &options_.fusion;
    ctx.ground_truth = &truth_;
    ctx.rng = rng_;
    ctx.excluded = &skipped_set;
    ctx.include_singletons = options_.include_singletons;
    ctx.warm_start_lookahead = options_.warm_start;
    ctx.delta = delta_base_valid ? delta.get() : nullptr;
    ctx.require_known_truth = streaming.require_known_truth;
    ctx.cancel = options_.cancel;

    const std::size_t want = std::min(
        options_.batch_size, options_.max_validations - validated);

    rounds_counter->Add(1);
    // End-to-end round latency (select + oracle wait + re-fuse + metrics):
    // the distribution the serve bench quotes as step p50/p99. The per-phase
    // histograms below break it down.
    Timer round_timer;
    Timer select_timer;
    std::vector<ItemId> batch;
    {
      VERITAS_SPAN("session.select");
      batch = strategy_->SelectBatch(ctx, want);
    }
    const double select_seconds = select_timer.ElapsedSeconds();
    select_hist->Observe(select_seconds);
    // Hard stop first: a hard-cancelled strategy may return a truncated or
    // empty batch, which must not be mistaken for pool exhaustion. The
    // in-flight round is discarded; the last on-disk checkpoint stands.
    if (hard_stop()) return interrupted();
    if (batch.empty()) {
      // No candidates right now. With a live feed the pool can refill (the
      // next tick appends observations and truth rows), so loop back to
      // ingest — progress is guaranteed because every iteration advances the
      // feed. Only a drained feed means true exhaustion.
      if (feed_live) continue;
      break;
    }

    SessionStep step;
    step.select_seconds = select_seconds;

    {
      VERITAS_SPAN("session.oracle");
      Timer oracle_timer;
      for (ItemId item : batch) {
        if (hard_stop()) {
          oracle_hist->Observe(oracle_timer.ElapsedSeconds());
          return interrupted();
        }
        auto answer = oracle_->Answer(db_, item, truth_, rng_);
        // Fold the retry accrual in as retries happen: a round that aborts
        // below must not drop the attempts already spent (they are visible
        // through the registry even when the trace is discarded).
        const std::size_t retries = oracle_->last_attempts() - 1;
        step.oracle_retries += retries;
        trace.total_oracle_retries += retries;
        retries_counter->Add(retries);
        if (!answer.ok()) {
          if (options_.skip_unanswerable &&
              IsSkippableOracleFailure(answer.status().code())) {
            // Graceful degradation: remember the item so the strategy moves
            // to its next-best suggestion instead of re-proposing it forever.
            step.skipped.push_back(item);
            trace.skipped_items.push_back(item);
            skipped_set.insert(item);
            skipped_counter->Add(1);
            continue;
          }
          oracle_hist->Observe(oracle_timer.ElapsedSeconds());
          return answer.status();
        }
        VERITAS_RETURN_IF_ERROR(trace.priors.SetDistribution(
            db_, item, std::move(answer).value()));
        step.items.push_back(item);
        ++validated;
        validated_counter->Add(1);
      }
      oracle_hist->Observe(oracle_timer.ElapsedSeconds());
    }

    if (!step.items.empty()) {
      VERITAS_SPAN("session.refuse");
      Timer fuse_timer;
      FusionResult next = refuse();
      step.fuse_seconds = fuse_timer.ElapsedSeconds();
      fuse_hist->Observe(step.fuse_seconds);

      // A hard stop mid-fusion leaves `next` truncated (converged() false by
      // construction); discard the round before it pollutes the convergence
      // accounting or the fusion state.
      if (hard_stop()) return interrupted();

      if (!next.converged()) {
        ++trace.fusion_nonconverged_rounds;
        nonconverged_counter->Add(1);
      }
      if (!next.AllFinite()) {
        // Warm-start rollback: keep the last-good fusion instead of
        // propagating a poisoned result into strategy scores.
        ++trace.fusion_fallback_rounds;
        fallback_counter->Add(1);
        delta_base_valid = false;
      } else {
        fusion = std::move(next);
        delta_base_valid = true;
      }
    }

    step.num_validated = validated;
    if (options_.record_metrics) {
      VERITAS_SPAN("session.metrics");
      Timer metrics_timer;
      step.distance = DistanceToGroundTruth(db_, fusion, truth_);
      step.uncertainty = Uncertainty(fusion);
      metrics_hist->Observe(metrics_timer.ElapsedSeconds());
    }
    step_hist->Observe(round_timer.ElapsedSeconds());
    if (tenant_step_hist != nullptr) {
      tenant_step_hist->Observe(round_timer.ElapsedSeconds());
    }
    trace.steps.push_back(std::move(step));
    checkpoint_dirty = true;
    VERITAS_RETURN_IF_ERROR(maybe_checkpoint(/*force=*/false));
  }

  VERITAS_RETURN_IF_ERROR(maybe_checkpoint(/*force=*/true));
  if (streaming.active()) {
    trace.truths_deferred = deferred_truths.size();
    truth_deferred_counter->Add(trace.truths_deferred);
  }
  trace.final_fusion = std::move(fusion);
  return trace;
}

}  // namespace veritas
