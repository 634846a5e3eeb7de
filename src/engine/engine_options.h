// Configuration of the concurrent histogram engine.
//
// The engine (see histogram_engine.h) turns the single-threaded dynamic
// histograms of §3-§4 into server-side state that absorbs a concurrent
// update stream: updates hash across `shards` independently-locked
// histogram instances, per-shard buffers batch `batch_size` operations per
// histogram-lock acquisition, and every `snapshot_every` updates the shard
// models are merged (Superimpose + ReduceWithSsbm, the §8 machinery) into
// one immutable published snapshot, compiled to its query arena, that
// queries read lock-free.

#ifndef DYNHIST_ENGINE_ENGINE_OPTIONS_H_
#define DYNHIST_ENGINE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "src/histogram/st_feedback.h"

namespace dynhist::engine {

/// Which dynamic histogram each shard maintains. Restricted to the kinds
/// whose Delete() ignores `live_copies_before` (the engine does not track
/// exact per-value live counts; see Histogram::Delete).
enum class ShardHistogramKind {
  kDynamicCompressed,  ///< DC (§3)
  kDynamicVOpt,        ///< DVO (§4, squared deviations)
  kDynamicAdo,         ///< DADO (§4.1, absolute deviations; paper's best)
  kStFeedback,         ///< STF (query-feedback trained; st_feedback.h)
};

/// Tuning knobs of a HistogramEngine. The defaults suit a 5000-value
/// domain with ~10^5 live points (the paper's reference workload).
struct EngineOptions {
  /// Number of ingest shards per key. Updates hash (by value) to a shard;
  /// each shard owns one dynamic histogram behind its own mutex.
  int shards = 8;

  /// Operations buffered per shard before the shard's histogram lock is
  /// taken and the batch applied. 1 applies every update immediately.
  int batch_size = 64;

  /// Updates (per key) between automatic snapshot publications. 0 disables
  /// automatic publication; snapshots then refresh only via
  /// RefreshSnapshot() or the background thread.
  std::int64_t snapshot_every = 8192;

  /// Histogram kind maintained by every shard.
  ShardHistogramKind kind = ShardHistogramKind::kDynamicAdo;

  /// Buckets per shard histogram (n in §3/§4).
  std::int64_t shard_buckets = 64;

  /// Bucket budget of the published merged snapshot: the superimposed
  /// composite of the shard models is re-partitioned to this many buckets
  /// with SSBM ("treat the histogram as a data set", §8). 0 publishes the
  /// lossless composite unreduced.
  std::int64_t merged_buckets = 64;

  /// DC only: chi-square repartition threshold (§3).
  double alpha_min = 1e-6;

  /// DVO/DADO only: equal-width sub-buckets per bucket (§4).
  int sub_buckets = 2;

  /// STF only: learning rate, restructure thresholds, and initial domain
  /// of ST-FEEDBACK shards (see StFeedbackConfig). The `buckets` field is
  /// ignored — `shard_buckets` sizes every shard kind uniformly.
  StFeedbackConfig st_feedback{};

  /// Collapse duplicate values in each drained shard batch into weighted
  /// InsertN/DeleteN calls (inserts before deletes per value, values in
  /// first-occurrence order, grouped in one pass through a small hash
  /// table), so batch cost tracks distinct values rather than operations —
  /// a large win for skewed streams. Coalescing reorders operations across
  /// values inside one batch and takes weighted maintenance steps, so the
  /// exact bucket-border trajectory differs from a one-by-one replay
  /// (estimation quality and total mass do not). Disable for op-order
  /// faithful replay.
  bool coalesce_batches = true;

  /// When positive, a background thread republishes every key's snapshot
  /// at this cadence (skipping keys with no new updates). 0 disables the
  /// thread; publication is then driven by `snapshot_every` and
  /// RefreshSnapshot() alone.
  int background_interval_ms = 0;

  /// Publish off the writer thread: when a key's `snapshot_every` cadence
  /// fires, the writer enqueues a publish request onto a bounded queue and
  /// returns immediately; merge workers drain the queue, coalescing
  /// duplicate requests for one key (only the newest state matters). False
  /// (the default) keeps today's synchronous publish-on-writer-thread
  /// behavior bit for bit. RefreshSnapshot()/RefreshAll() always publish
  /// inline regardless of this flag.
  bool async_publish = false;

  /// Merge workers draining the publish queue. Spawned lazily on the first
  /// enqueue, so purely synchronous engines never start a thread. 0 is
  /// manual-pump mode: nothing drains the queue until PumpPublishes() /
  /// DrainPublishes() — the deterministic executor the test harness steps.
  int merge_workers = 1;

  /// Bound of the publish-request queue. Coalescing keeps at most one
  /// entry per key, so this caps the number of keys with an outstanding
  /// publish; a full queue rejects the request (counted in EngineStats)
  /// and the key retries at its next cadence trip.
  int publish_queue_capacity = 1024;

  /// Telemetry (src/telemetry/): latency/size distributions, the event
  /// trace ring, and queue-wait accounting. False skips every recording
  /// site — the distributions stay empty and queue-wait counters stay 0,
  /// the overhead bench's baseline mode — while the EngineStats counters
  /// (which predate telemetry and are the publish cadence's bookkeeping)
  /// are always maintained. Building with -DDYNHIST_TELEMETRY=0
  /// additionally compiles the recording primitives themselves to no-ops.
  bool enable_telemetry = true;

  /// Capacity (events, rounded up to a power of two) of the trace ring
  /// recording publish/merge/flush/reject events; the newest events
  /// survive and HistogramEngine::WriteTraceJson dumps them as a
  /// chrome://tracing document. 0 disables tracing. Ignored (treated as
  /// 0) when enable_telemetry is false.
  int trace_capacity = 4096;
};

/// Per-key overrides layered over the engine-wide EngineOptions by
/// HistogramEngine::SetKeyOptions(). Absent fields keep the global value.
/// The publish-side knobs take effect immediately, on existing keys,
/// without touching shard state; `backend` is the one shard-layout knob
/// and applies at key creation only (the remaining layout knobs —
/// shards, batch_size, shard_buckets — always come from the global
/// options).
struct KeyOptionOverrides {
  /// Per-key shard histogram kind — the backend selector that lets
  /// feedback-trained (kStFeedback) keys coexist with data-driven
  /// DC/DVO/DADO keys in one engine. Unlike every other override this is
  /// a shard-layout knob, so it takes effect only at key creation:
  /// SetKeyOptions(unknown key, {.backend = ...}) creates the key with
  /// that kind; on an already-created key the field is ignored (the
  /// shard histograms already exist). EffectiveOptions reports the kind
  /// the key was actually created with.
  std::optional<ShardHistogramKind> backend{};

  /// Per-key publication cadence (0 disables auto-publish for the key).
  std::optional<std::int64_t> snapshot_every{};

  /// Per-key bucket budget of the published snapshot.
  std::optional<std::int64_t> merged_buckets{};

  /// Per-key async publish: hot keys can publish eagerly off-thread while
  /// cold keys stay on the cheap synchronous path, or vice versa.
  std::optional<bool> async_publish{};
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_ENGINE_OPTIONS_H_
