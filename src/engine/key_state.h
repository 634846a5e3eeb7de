// Per-key engine state, hoisted to namespace scope so the reader fast
// path can name it: a KeyHandle (key_handle.h) is a stable pointer to one
// KeyState, and the thread-local snapshot lease cache (snapshot_lease.h)
// validates its cached epoch against KeyState::version. Everything here
// is owned and orchestrated by HistogramEngine — the struct is an
// implementation detail published only through the internal namespace.
//
// Lifetime contract (what makes KeyHandle safe): KeyStates live in a
// registry that never erases, each behind a unique_ptr, so a KeyState's
// address is stable from creation to engine destruction. A handle is
// therefore valid exactly as long as its engine.

#ifndef DYNHIST_ENGINE_KEY_STATE_H_
#define DYNHIST_ENGINE_KEY_STATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/engine_options.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/histogram/merge.h"
#include "src/telemetry/log_histogram.h"

namespace dynhist::engine::internal {

/// One key's share of the EngineStats counters (see the EngineStats
/// ordering contract in histogram_engine.h). Every cell but
/// max_publish_nanos is one row of histogram_engine.cc's counter table,
/// which Stats(), ToJson() and the metrics scrape all read.
struct KeyCounters {
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> deletes{0};
  std::atomic<std::uint64_t> feedbacks{0};
  std::atomic<std::uint64_t> rejected_feedbacks{0};
  std::atomic<std::uint64_t> rejected_values{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> lease_hits{0};
  std::atomic<std::uint64_t> lease_misses{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> async_publishes{0};
  std::atomic<std::uint64_t> publish_queued{0};
  std::atomic<std::uint64_t> publish_coalesced{0};
  std::atomic<std::uint64_t> publish_rejected{0};
  std::atomic<std::uint64_t> publish_skipped{0};
  std::atomic<std::uint64_t> publish_nanos{0};
  std::atomic<std::uint64_t> max_publish_nanos{0};
  std::atomic<std::uint64_t> queue_wait_nanos{0};
};

struct KeyState {
  KeyState(std::string key_name, const EngineOptions& options,
           const ShardTelemetry& shard_telemetry);

  /// The key, interned for the registry's lifetime: trace events and
  /// metric labels reference its storage.
  const std::string name;

  std::vector<std::unique_ptr<EngineShard>> shards;

  /// Per-key |published estimate − actual| distribution, recorded at
  /// RecordFeedback time (the convergence observable: how wrong the
  /// optimizer-visible snapshot was about each observed predicate).
  /// Empty when telemetry is off.
  telemetry::LogHistogram feedback_abs_error{
      telemetry::LogBucketer::PerDecade(4)};

  KeyCounters counters;

  // Telemetry timestamps (offsets on the engine's trace clock, relaxed
  // — diagnostic): when this key's queued publish request was
  // enqueued (at most one is outstanding, so one slot suffices), and
  // when the key last published (0 = never), which drives the
  // staleness-seconds gauge.
  std::atomic<std::uint64_t> enqueued_at_ns{0};
  std::atomic<std::uint64_t> last_publish_ns{0};

  // Updates accepted for this key, and the value of that counter at the
  // last publication — their difference drives auto-publication.
  std::atomic<std::uint64_t> update_count{0};
  std::atomic<std::uint64_t> published_at{0};

  // Async publish state: `publish_pending` is true while a request for
  // this key sits in the queue — further cadence trips coalesce into it
  // instead of enqueueing again (the worker publishes the key's newest
  // state, so only the newest trip matters). `requested_at` is the
  // update count at the last trip; the async cadence measures from
  // max(published_at, requested_at) so a pending request suppresses
  // re-trips until new updates accumulate past it.
  std::atomic<bool> publish_pending{false};
  std::atomic<std::uint64_t> requested_at{0};

  std::mutex publish_mu;  // serializes merges of this key
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::shared_ptr<const VersionedModel>> published;

  // Lease validation stamp: bumped (release) AFTER `published` is
  // swapped, so a reader that observes the new version and then
  // acquire-loads `published` is guaranteed at least that version's
  // snapshot. Distinct from `epoch`, which is bumped BEFORE the swap
  // (it is baked into the VersionedModel) and therefore cannot serve
  // as a was-the-swap-visible stamp. See snapshot_lease.h for the
  // full reader-side ordering contract.
  std::atomic<std::uint64_t> version{0};

  // Newest `version` any reader has leased (relaxed max, diagnostic):
  // `version - last_leased_version` is the per-key lease-staleness
  // gauge — 0 while the reader fleet is current, >0 between a publish
  // and the first revalidation that observes it.
  std::atomic<std::uint64_t> last_leased_version{0};

  // Publish-path scratch reused across epochs (guarded by publish_mu):
  // the vector that holds the exported shard models, and the merger's
  // sweep and slice buffers. Each export still allocates its model's
  // pieces, and each reduction its SSBM scratch (bucket, key, pick and
  // selection arrays, and the tail's pair tree), per call rather than per
  // key so that idle keys hold none of it.
  std::vector<HistogramModel> model_scratch;
  SnapshotMerger merger;
};

}  // namespace dynhist::engine::internal

#endif  // DYNHIST_ENGINE_KEY_STATE_H_
