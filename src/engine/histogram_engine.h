// Concurrent histogram engine: sharded ingest, epoch snapshots, and a
// thread-safe query path.
//
// The paper's dynamic histograms exist so a live DBMS can keep selectivity
// estimates fresh under its insert/delete stream (§1); this engine is the
// server-side packaging of that idea. It maintains a registry of keyed
// histograms (one per attribute, e.g. "orders.amount") and makes each safe
// under concurrent writers and readers:
//
//   writers ──hash(value)──▶ shard buffers ──batch──▶ per-shard dynamic
//   histograms (DC/DVO/DADO/STF behind per-shard mutexes)
//                                   │  every snapshot_every updates, or on
//                                   ▼  demand (RefreshSnapshot/RefreshAll)
//   Superimpose(shard models) ─▶ ReduceWithSsbm ─▶ Compile ─▶ immutable
//                                   │   VersionedModel, published by atomic
//                                   │   shared_ptr swap
//                                   ▼
//   readers ── Snapshot()/EstimateRange(): lock-free reads of the last
//              published epoch; never touch the write locks.
//
// The merge step is exactly the §8 shared-nothing machinery: each shard is
// a "site" whose histogram covers the subset of values hashing to it, the
// lossless superposition adds their masses, and SSBM re-partitioning
// brings the composite back to the configured bucket budget. One
// EngineOptions configures every key of an engine; keys that need a
// different backend, cadence or budget live in an engine of their own.
//
// Publication runs in one of two modes. Synchronous (the default): the
// writer that trips a key's snapshot_every cadence performs the merge
// inline — simple, but that writer's latency spikes by the full merge
// cost each epoch. Asynchronous (EngineOptions::async_publish): the
// tripping writer enqueues a publish request and returns immediately;
// merge workers, started with the engine, drain the queue and publish
// under the same per-key publish_mu the sync path uses. A key holds at
// most one queued request (a request is "publish the key's newest
// state", so N trips while one is queued still cost one merge), so the
// key count bounds the queue. merge_workers == 0 is manual-pump mode:
// the queue drains only through PumpPublishes()/DrainPublishes(), which
// is what the deterministic engine tests step.
//
// Consistency model: a snapshot merges every shard, but shards are
// flushed and exported one after another while writers keep pushing, so
// there is no cross-shard atomicity — a publication concurrent with a
// writer may include that writer's later update but not an earlier one
// that hashed to an already-exported shard. Within one shard the applied
// sequence is always a prefix of each producer's push order. Reads
// between publications see the previous epoch — estimates lag the stream
// by at most snapshot_every updates, and a quiescent RefreshSnapshot() is
// exact. Deletes must refer to values actually inserted for the key (the
// §7.3 convention: the executor deletes concrete tuples).

#ifndef DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_
#define DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/engine/engine_options.h"
#include "src/engine/key_handle.h"
#include "src/engine/key_state.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/telemetry/exposition.h"
#include "src/telemetry/log_histogram.h"
#include "src/telemetry/trace_ring.h"

namespace dynhist::engine {

/// The attribute values the engine accepts: [-2^53, 2^53). A value v is
/// the piece [v, v + 1) in double arithmetic, and past 2^53 that piece has
/// zero width. Insert, Delete and InsertBatch drop values outside the
/// domain and count them in EngineStats::rejected_values.
inline constexpr std::int64_t kMinValue = -(std::int64_t{1} << 53);
inline constexpr std::int64_t kMaxValue = (std::int64_t{1} << 53) - 1;

/// Monotone counters describing engine activity — the global aggregate
/// from Stats(), or one key's share from Stats(key). The per-key
/// counters are the source of truth; the aggregate is their sum (max for
/// max_publish_nanos), so per-key stats sum to the global at any
/// synchronization point.
///
/// Memory-ordering contract: every counter is incremented with release
/// ordering after the work it counts and read by Stats() with acquire
/// ordering, so a counter value carries the writes that produced it (a
/// reader that sees publishes == N also sees the Nth published snapshot).
/// The op counters (inserts, deletes, feedbacks) are bumped after the op
/// is pushed to its shard and before the publish cadence check, which
/// reads their sum as the key's update count. Counters are individually
/// monotone, but mutually consistent only after a synchronization point —
/// quiescence, DrainPublishes(), or StopPublishWorkers() — because they
/// are not incremented under one lock.
struct EngineStats {
  std::uint64_t keys = 0;        ///< registered histogram keys
  std::uint64_t inserts = 0;     ///< Insert() calls accepted
  std::uint64_t deletes = 0;     ///< Delete() calls accepted
  std::uint64_t feedbacks = 0;   ///< RecordFeedback() calls accepted
  /// RecordFeedback() calls dropped as invalid caller input: lo > hi, or
  /// an `actual` that is negative, NaN or infinite.
  std::uint64_t rejected_feedbacks = 0;
  /// Insert/Delete/InsertBatch values dropped as outside the supported
  /// domain [kMinValue, kMaxValue].
  std::uint64_t rejected_values = 0;
  std::uint64_t queries = 0;     ///< estimate / snapshot reads served
  /// Estimate reads answered without a snapshot: the key was unknown OR
  /// known but never published. Both take the same fallback path (return
  /// 0.0, the empty epoch-0 view) and both count here — and in `queries`
  /// — so "reads the optimizer got nothing for" is one number. Global
  /// only (an unknown key has no per-key counters to charge).
  std::uint64_t unknown_queries = 0;

  // Epoch-pinned reader fast path (KeyHandle + thread-local lease
  // cache; see snapshot_lease.h). Every handle-path revalidation is
  // either a hit (cached snapshot reused — zero refcount traffic) or a
  // miss (shared_ptr re-acquired because the key's epoch moved, the
  // slot was cold, or it had been evicted). In steady state misses
  // track publications observed, not queries — the acceptance probe
  // that the hot path really performs no shared_ptr operations.
  std::uint64_t lease_hits = 0;    ///< revalidations served from the lease
  std::uint64_t lease_misses = 0;  ///< revalidations that re-acquired

  std::uint64_t publishes = 0;   ///< snapshot publications across all keys

  // Async publish pipeline (zero in purely synchronous engines).
  std::uint64_t async_publishes = 0;    ///< publishes run off the queue
  std::uint64_t publish_queued = 0;     ///< requests accepted onto the queue
  std::uint64_t publish_coalesced = 0;  ///< cadence trips absorbed by an
                                        ///< already-pending request
  std::uint64_t publish_rejected = 0;   ///< cadence trips refused after
                                        ///< StopPublishWorkers() began
  std::uint64_t publish_skipped = 0;    ///< drained requests whose updates
                                        ///< an inline refresh had already
                                        ///< published (merge elided)

  // Publish-latency accounting. publish_nanos is merge + swap only
  // (flush, superimpose, reduce, pointer swap, on whichever thread ran
  // the publication); time a request spent waiting in the publish queue
  // is accounted separately in queue_wait_nanos — so async publication
  // end-to-end staleness is queue wait plus publish time, and the two
  // must not be conflated. queue_wait_nanos requires telemetry
  // (EngineOptions::enable_telemetry); it stays 0 when disabled.
  std::uint64_t publish_nanos = 0;      ///< total nanoseconds in Publish
  std::uint64_t max_publish_nanos = 0;  ///< slowest single Publish
  std::uint64_t queue_wait_nanos = 0;   ///< total ns requests sat queued

  /// Per-key: the key's published snapshot epoch (a gauge — epoch 0
  /// means never published). Global: the sum of per-key epochs, which at
  /// a synchronization point equals `publishes` (every publication of a
  /// key advances its epoch by exactly 1) — a cheap cross-counter
  /// consistency probe for dumps.
  std::uint64_t snapshot_epoch = 0;
};

/// Thread-safe registry of sharded dynamic histograms.
class HistogramEngine {
 public:
  explicit HistogramEngine(const EngineOptions& options);
  ~HistogramEngine();

  HistogramEngine(const HistogramEngine&) = delete;
  HistogramEngine& operator=(const HistogramEngine&) = delete;

  /// Records the insertion of one tuple with attribute value `value` under
  /// `key`, creating the key on first use. The supported domain is
  /// [kMinValue, kMaxValue] = [-2^53, 2^53): a value outside it is
  /// dropped and counted in EngineStats::rejected_values and
  /// dynhist_key_rejected_ops_total{reason="domain"}. Thread-safe.
  void Insert(std::string_view key, std::int64_t value);

  /// Records the deletion of one tuple. The value must have been inserted
  /// under `key` (executor convention, §7.3); out-of-domain values are
  /// dropped and counted as for Insert. Thread-safe.
  void Delete(std::string_view key, std::int64_t value);

  /// Bulk insert: one buffer-lock round per shard instead of per value.
  /// Out-of-domain values are dropped and counted as for Insert; the rest
  /// are inserted.
  void InsertBatch(std::string_view key,
                   const std::vector<std::int64_t>& values);

  /// Records one query-feedback observation for `key`: the predicate
  /// lo <= A <= hi was executed and returned `actual` tuples. The
  /// observation is broadcast to every shard with `actual` scaled by
  /// 1/shards — a range does not hash to one shard the way a value
  /// does, so each shard trains toward its 1/shards share and the
  /// publish-time Superimpose sums the shares back to the full
  /// cardinality. Feedback rides the normal batch buffers (applied one by
  /// one, in push order — see EngineShard), counts one update toward the
  /// publish cadence, and is a no-op on data-driven backends (DC/DVO/
  /// DADO ignore it), so it is safe against any key. An observation with
  /// lo > hi, or with a negative, NaN or infinite `actual`, is dropped
  /// and counted in EngineStats::rejected_feedbacks and
  /// dynhist_key_rejected_ops_total{reason="feedback"}. Thread-safe.
  void RecordFeedback(const KeyHandle& handle, std::int64_t lo,
                      std::int64_t hi, double actual);

  /// Drains every shard buffer of every key into the underlying
  /// histograms. Does not publish.
  void FlushAll();

  /// The last published snapshot for `key`. Lock-free on the hot path: one
  /// shared registry lock plus one atomic shared_ptr load; never touches
  /// shard locks. An unknown or never-published key yields the empty
  /// epoch-0 snapshot.
  EngineSnapshot Snapshot(std::string_view key) const;

  /// Flushes, merges, and publishes a fresh snapshot of `key`, returning
  /// it. Concurrent refreshes of one key serialize; updates keep flowing.
  EngineSnapshot RefreshSnapshot(std::string_view key);

  /// Publishes fresh snapshots for every key with unpublished updates.
  /// With snapshot_every == 0, calling this on a timer is the engine's
  /// periodic refresh.
  void RefreshAll();

  /// Every registered key name, sorted. Cold path (shared registry
  /// lock + string copies) — this is the SiteShipper's per-round key
  /// enumeration, not a query primitive.
  std::vector<std::string> Keys() const;

  /// Publishes `model` verbatim as `key`'s next epoch, creating the key
  /// if needed — the distributed tier's entry point: the aggregator's
  /// merged global view enters the same publish tail as Publish (arena
  /// compile, atomic swap, epoch store, lease invalidation), so readers
  /// ride the compiled-snapshot + KeyHandle fast path with no idea the
  /// model came off the wire. `watermark` is recorded on the snapshot
  /// verbatim (for an aggregator: the summed site watermarks).
  /// Serializes with other publications of the key; shard buffers,
  /// ingest counters and the publish cadence are untouched (external
  /// keys usually have none).
  EngineSnapshot PublishExternal(std::string_view key, HistogramModel model,
                                 std::uint64_t watermark = 0);

  /// Runs up to `max_requests` queued publish requests on the calling
  /// thread, returning how many it ran. With merge_workers == 0 this is
  /// the only thing that drains the queue — the deterministic manual-pump
  /// executor the engine test harness steps; it is also safe to call
  /// alongside live workers (both sides pop under the queue lock).
  std::size_t PumpPublishes(
      std::size_t max_requests = std::numeric_limits<std::size_t>::max());

  /// Returns once the publish queue is empty and no worker is mid-merge.
  /// With merge_workers == 0 it pumps the queue inline instead of
  /// waiting. Publications requested before the call are all visible
  /// through Snapshot() when it returns.
  void DrainPublishes();

  /// Stops the merge workers after they drain everything already queued
  /// (no request accepted before the call is lost), then joins them; in
  /// manual-pump mode the queue is pumped inline. From the call on, a
  /// cadence trip of an async key is refused and counted in
  /// EngineStats::publish_rejected; RefreshSnapshot() and RefreshAll()
  /// still publish. Called by the destructor; safe to call repeatedly.
  void StopPublishWorkers();

  /// Requests queued right now (diagnostic; racy by nature).
  std::size_t PublishQueueDepth() const;

  /// Estimated tuples under `key` with lo <= A <= hi (an equality
  /// predicate A = v is the range [v, v]), read from the last published
  /// snapshot. Lock-free and allocation-free: answered by the snapshot's
  /// compiled prefix-CDF arena, bit-identical to the model's piece walk.
  ///
  /// These string-keyed reads are thin wrappers: one transparent
  /// registry find (shared lock), then the same estimate body the handle
  /// overloads run. They re-acquire the published shared_ptr per call —
  /// the pre-handle cost model — and deliberately skip the thread-local
  /// lease cache so transient lookups never evict the slots long-lived
  /// handle readers depend on. Hot readers should Resolve() once and
  /// query through the KeyHandle overloads below.
  double EstimateRange(std::string_view key, std::int64_t lo,
                       std::int64_t hi) const;

  // ---- Epoch-pinned reader fast path (see key_handle.h) ----

  /// Resolves `key` to a stable handle, creating the key if needed (so a
  /// returned handle is always valid). The registry find happens here,
  /// once; queries through the handle never repeat it. The handle stays
  /// valid across publishes and RefreshAll, for the engine's lifetime —
  /// it is the object a long-lived reader (or, in the distributed tier, a
  /// server connection) holds per key.
  KeyHandle Resolve(std::string_view key);

  /// Resolves `key` without creating it: an unknown key yields an invalid
  /// handle. For callers that must not let a lookup grow the registry,
  /// such as a server answering remote queries.
  KeyHandle Find(std::string_view key) const;

  /// Estimates through a resolved handle: one relaxed epoch load
  /// revalidates this thread's snapshot lease, then the arena lookup —
  /// no registry lock and, on the steady-state hit path, no shared_ptr
  /// refcount traffic (the lease re-acquires only when the key's
  /// epoch moved; see snapshot_lease.h for the ordering contract).
  /// Bit-identical to the string-keyed reads.
  double EstimateRange(const KeyHandle& handle, std::int64_t lo,
                       std::int64_t hi) const;

  /// Batch estimate: answers `count` range queries into `results`,
  /// revalidating the lease and settling the stats counters ONCE for
  /// the whole span — the per-query cost converges to the raw arena
  /// lookup as the batch grows. Results are exactly what `count`
  /// EstimateRange(handle, …) calls would return (the batch is one
  /// consistent snapshot: all answers come from the same lease).
  void EstimateRangeBatch(const KeyHandle& handle, const RangeQuery* queries,
                          std::size_t count, double* results) const;

  /// The published snapshot via the lease — the handle analogue of
  /// Snapshot(key), sharing its semantics (counts a query; yields the
  /// empty epoch-0 snapshot before first publication) but revalidating
  /// through the thread-local lease instead of re-acquiring from the
  /// registry. The returned EngineSnapshot copies the leased shared_ptr
  /// (one refcount op — the handoff price, not the steady-state one).
  /// Per thread, epochs observed through one handle are monotone, and
  /// never behind a KeyHandle::epoch() the thread read before the call.
  EngineSnapshot LeasedSnapshot(const KeyHandle& handle) const;

  /// Exact live mass currently absorbed by the shards of `key` (flushes
  /// buffers; takes shard locks — diagnostic, not a hot-path call).
  double LiveTotalCount(std::string_view key);

  /// Global aggregate across all keys / one key's share (an unknown key
  /// reports all-zero stats with keys == 0). See the EngineStats
  /// contract for the consistency model. The handle overload skips the
  /// registry find, like every handle entry point.
  EngineStats Stats() const;
  EngineStats Stats(std::string_view key) const;
  EngineStats Stats(const KeyHandle& handle) const;

  /// Appends everything the engine knows about itself to `*out`: global
  /// and per-key counters, staleness/queue-depth gauges, and the
  /// latency/size distributions. Per-key series come in key-name order.
  /// Each counter is loaded once and feeds both its per-key series and
  /// the engine-wide sum, so within one scrape the per-key series add up
  /// to the totals. Thread-safe; scrape-cost only.
  void CollectMetrics(telemetry::MetricsSnapshot* out) const;

  /// CollectMetrics rendered as Prometheus text (see
  /// src/telemetry/exposition.h).
  void WriteMetricsPrometheus(std::string* out) const;

  /// Dumps the trace ring (publish/merge/flush/reject events) as a
  /// chrome://tracing JSON document. Empty trace when tracing is off.
  void WriteTraceJson(std::string* out) const;

  /// The engine's trace ring (diagnostic access; always valid, holds the
  /// newest 4096 events, disabled when telemetry is off).
  const telemetry::TraceRing& trace() const { return trace_; }

 private:
  // Per-key state is hoisted to key_state.h (namespace internal) so
  // KeyHandle and the thread-local snapshot lease cache can name it; the
  // alias keeps this class's vocabulary unchanged.
  using KeyState = internal::KeyState;

  // Finds the key's state (nullptr when unknown), or finds it and
  // creates it on first use (never nullptr).
  KeyState* FindKey(std::string_view key) const;
  KeyState* FindOrCreateKey(std::string_view key);

  // Adds `state`'s counters into `*stats` (acquire loads; max fields
  // combine by max, snapshot_epoch by sum).
  static void AccumulateStats(const KeyState& state, EngineStats* stats);

  // Shard routing for `value` — the single definition of the hash-to-shard
  // policy; Insert/Delete and InsertBatch must agree or the per-shard
  // insert-before-delete ordering guarantee breaks.
  static std::size_t ShardIndexFor(const KeyState& state, std::int64_t value);
  EngineShard& ShardFor(KeyState& state, std::int64_t value) const;

  // The estimate tail every entry point (string, handle, batch) funnels
  // into: counts the query against `state`, unifies the no-snapshot
  // fallback (vm == nullptr counts in unknown_queries_, exactly like an
  // unknown key), answers from the arena, and samples latency. `vm` is
  // whatever the caller's acquisition strategy produced — a freshly
  // acquired shared_ptr (string path) or the thread's lease (handle
  // path).
  double EstimateOnState(KeyState& state, const VersionedModel* vm,
                         std::int64_t lo, std::int64_t hi) const;

  // Settles the lease hit/miss counters for one revalidation of `state`.
  void CountLease(KeyState& state, bool hit) const;

  // Pushes one insert or delete, bumps its counter, and runs the publish
  // cadence. An op whose value is outside [kMinValue, kMaxValue] is
  // counted as rejected instead.
  void Update(std::string_view key, const UpdateOp& op);

  // After accepting new updates: publish (sync) or enqueue a publish
  // request (async) if the key's cadence says so.
  void MaybeAutoPublish(KeyState& state);

  // Async path of MaybeAutoPublish: coalesce into a pending request,
  // enqueue a new one, or refuse it once the workers are stopping.
  void RequestAsyncPublish(KeyState& state, std::uint64_t count);

  // Pops one request and publishes it on the calling thread. Returns
  // false when the queue is empty. Shared by workers and PumpPublishes.
  bool RunOneQueuedPublish();

  // Flush + superimpose + reduce, then PublishModel. Returns the
  // snapshot. The second overload runs under an already-held publish
  // lock. `trigger` names what drove the publication ("sync", "async",
  // "refresh") for the trace.
  EngineSnapshot Publish(KeyState& state, const char* trigger);
  EngineSnapshot Publish(KeyState& state,
                         std::unique_lock<std::mutex> publish_lock,
                         const char* trigger);

  // When Publish's export and merge stages ended, for their trace events.
  struct PublishHead {
    std::uint64_t exported_ns;
    std::uint64_t merged_ns;
  };

  // The publish tail shared by Publish and PublishExternal, run under the
  // key's publish lock: compile `model`, swap it in as the next epoch's
  // snapshot, store that epoch, then settle counters and telemetry for a
  // publication that began at `start_ns`. Publish passes its
  // `head`: the key's published_at advances to `watermark` after the
  // swap, and the flush and merge trace events precede the publish
  // event. An external publication passes nullptr and leaves
  // published_at, the cadence's baseline, alone.
  EngineSnapshot PublishModel(KeyState& state, HistogramModel model,
                              std::uint64_t watermark, const char* trigger,
                              std::uint64_t start_ns,
                              const PublishHead* head);

  void MergeWorkerLoop();

  const EngineOptions options_;
  // True when this engine records distributions/traces/queue-wait; the
  // EngineStats counters are maintained regardless.
  const bool telemetry_on_;
  // Process-unique engine instance id, part of a lease slot's identity:
  // a KeyState address reused by a later engine never matches an earlier
  // engine's thread-local leases (see snapshot_lease.h).
  const std::uint64_t engine_id_;

  // Telemetry instruments. Declared before the key registry so key
  // states (whose shards hold histogram pointers) never outlive them;
  // the ring also provides the engine's monotonic ns clock (NowNs).
  telemetry::TraceRing trace_;
  telemetry::LogHistogram publish_latency_hist_{  // ns per publish
      telemetry::LogBucketer::PowersOfTwo()};
  telemetry::LogHistogram queue_wait_hist_{  // ns enqueue -> drain
      telemetry::LogBucketer::PowersOfTwo()};
  telemetry::LogHistogram ingest_batch_hist_{  // ops per shard drain
      telemetry::LogBucketer::PerDecade(4)};
  telemetry::LogHistogram coalesce_run_hist_{  // dupes per coalesced run
      telemetry::LogBucketer::PerDecade(4)};
  // ns per sampled estimate; mutable because the const read path records.
  mutable telemetry::LogHistogram query_latency_hist_{
      telemetry::LogBucketer::PowersOfTwo()};

  // Heterogeneous (string_view) lookup keeps the per-query FindKey free
  // of temporary std::string construction — the read path's only
  // remaining allocation risk for keys beyond the SSO limit.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  mutable std::shared_mutex registry_mu_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>, StringHash,
                     std::equal_to<>>
      registry_;

  // Reads the engine had no snapshot to answer from: estimates against
  // keys that were never created AND estimates against created keys
  // that have never published (one unified fallback path — both return
  // the empty epoch-0 answer), plus Snapshot() of unknown keys. The
  // per-key query counters cover reads that were actually served.
  mutable std::atomic<std::uint64_t> unknown_queries_{0};

  // Publish queue (guarded by queue_mu_). Holds raw KeyState pointers,
  // at most one per key (KeyState::publish_pending): the registry never
  // erases keys, and the destructor stops the workers before the
  // registry is torn down.
  mutable std::mutex queue_mu_;
  std::deque<KeyState*> publish_queue_;
  std::condition_variable queue_cv_;  // workers: work available / stopping
  std::condition_variable drain_cv_;  // DrainPublishes: empty and idle
  int publishes_in_flight_ = 0;
  bool queue_stopping_ = false;
  // The merge workers, started by the constructor of an async engine and
  // joined by StopPublishWorkers.
  std::vector<std::thread> workers_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_HISTOGRAM_ENGINE_H_
