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
  /// taken and the batch applied. Each drained batch collapses duplicate
  /// values into weighted InsertN/DeleteN calls (inserts before deletes
  /// per value, values in first-occurrence order, grouped in one pass
  /// through a small hash table), so batch cost tracks distinct values
  /// rather than operations — a large win for skewed streams. Coalescing
  /// reorders operations across values inside one batch and takes
  /// weighted maintenance steps, so the exact bucket-border trajectory
  /// differs from a one-by-one replay (estimation quality and total mass
  /// do not). Feedback observations are not coalesced: they apply one by
  /// one, in push order. 1 applies every update immediately and replays
  /// ops one by one in push order.
  int batch_size = 64;

  /// Updates (per key) between automatic snapshot publications. 0 disables
  /// automatic publication; snapshots then refresh only via
  /// RefreshSnapshot() or RefreshAll().
  std::int64_t snapshot_every = 8192;

  /// Histogram kind maintained by every shard of every key. DC runs with
  /// the paper's alpha_min = 1e-6 (§3) and DVO/DADO with 2 sub-buckets per
  /// bucket (§4), the DynamicCompressedConfig and DynamicVOptConfig
  /// defaults.
  ShardHistogramKind kind = ShardHistogramKind::kDynamicAdo;

  /// Buckets per shard histogram (n in §3/§4).
  std::int64_t shard_buckets = 64;

  /// Bucket budget of the published merged snapshot: the superimposed
  /// composite of the shard models is re-partitioned to this many buckets
  /// with SSBM ("treat the histogram as a data set", §8). 0 publishes the
  /// lossless composite unreduced.
  std::int64_t merged_buckets = 64;

  /// STF only: learning rate, restructure thresholds, and initial domain
  /// of ST-FEEDBACK shards (see StFeedbackConfig). The `buckets` field is
  /// ignored — `shard_buckets` sizes every shard kind uniformly.
  StFeedbackConfig st_feedback{};

  /// Publish off the writer thread: when a key's `snapshot_every` cadence
  /// fires, the writer enqueues a publish request and returns
  /// immediately; merge workers drain the queue. A key holds at most one
  /// queued request (a request means "publish the key's newest state", so
  /// later trips ride along), so the key count bounds the queue. A trip
  /// is refused only once StopPublishWorkers() has begun. False (the
  /// default) publishes synchronously on the writer thread.
  /// RefreshSnapshot()/RefreshAll() always publish inline regardless of
  /// this flag.
  bool async_publish = false;

  /// Merge workers draining the publish queue, started with the engine
  /// when `async_publish` is set (a synchronous engine starts no thread).
  /// 0 is manual-pump mode: nothing drains the queue until
  /// PumpPublishes() / DrainPublishes() — the deterministic executor the
  /// test harness steps.
  int merge_workers = 1;

  /// Telemetry (src/telemetry/): latency/size distributions, the event
  /// trace ring (the newest 4096 publish/merge/flush/reject events, which
  /// HistogramEngine::WriteTraceJson dumps as a chrome://tracing
  /// document), and queue-wait accounting. False skips every recording
  /// site — the distributions stay empty and queue-wait counters stay 0,
  /// the overhead bench's baseline mode — while the EngineStats counters
  /// (which predate telemetry and are the publish cadence's bookkeeping)
  /// are always maintained.
  bool enable_telemetry = true;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_ENGINE_OPTIONS_H_
