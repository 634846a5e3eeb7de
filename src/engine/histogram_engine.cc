#include "src/engine/histogram_engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/engine/snapshot_lease.h"

namespace dynhist::engine {
namespace {

// Engine instance ids for the lease slot identity (see snapshot_lease.h).
std::uint64_t NextEngineId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// splitmix64 finalizer: scatters adjacent attribute values across shards
// (std::hash on integers is the identity on libstdc++, which would map
// arithmetic value patterns onto a single shard).
std::uint64_t MixValue(std::int64_t value) {
  auto z = static_cast<std::uint64_t>(value) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool InValueDomain(std::int64_t value) {
  return value >= kMinValue && value <= kMaxValue;
}

void BumpMax(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < value &&
         !cell.compare_exchange_weak(prev, value, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

// The trace ring's capacity (events) when telemetry is on.
constexpr std::size_t kTraceEvents = 4096;

// The key's update count: its accepted inserts, deletes and feedbacks.
// Each is bumped right after its op is pushed, so every op the sum counts
// is already in a shard when a publication exports.
std::uint64_t UpdateCount(const internal::KeyState& state) {
  return state.counters.inserts.load(std::memory_order_relaxed) +
         state.counters.deletes.load(std::memory_order_relaxed) +
         state.counters.feedbacks.load(std::memory_order_relaxed);
}

// Every per-key counter, listed once: the KeyCounters cell that counts
// it, the EngineStats field that sums it, its per-key series and its
// engine-wide series. Stats() and CollectMetrics() loop over this table;
// the EngineStats fields that are not plain sums of a cell (keys,
// unknown_queries, max_publish_nanos, snapshot_epoch) are handled beside
// it.
using internal::KeyCounters;
struct CounterRow {
  std::atomic<std::uint64_t> KeyCounters::*cell;
  std::uint64_t EngineStats::*field;
  const char* key_series;
  const char* engine_series;  // nullptr: per-key series only
  const char* key_help;
  const char* engine_help = nullptr;  // nullptr: same as key_help
  const char* reason = nullptr;       // the per-key series' reason label
};

constexpr const char* kRejectedHelp =
    "Caller operations dropped as invalid input, by reason";
constexpr CounterRow kCounters[] = {
    {&KeyCounters::inserts, &EngineStats::inserts,
     "dynhist_key_inserts_total", "dynhist_engine_inserts_total",
     "Insert() calls accepted"},
    {&KeyCounters::deletes, &EngineStats::deletes,
     "dynhist_key_deletes_total", "dynhist_engine_deletes_total",
     "Delete() calls accepted"},
    {&KeyCounters::feedbacks, &EngineStats::feedbacks,
     "dynhist_key_feedbacks_total", "dynhist_engine_feedbacks_total",
     "RecordFeedback() observations accepted"},
    {&KeyCounters::rejected_feedbacks, &EngineStats::rejected_feedbacks,
     "dynhist_key_rejected_ops_total", nullptr,
     kRejectedHelp, nullptr, "feedback"},
    {&KeyCounters::rejected_values, &EngineStats::rejected_values,
     "dynhist_key_rejected_ops_total", nullptr,
     kRejectedHelp, nullptr, "domain"},
    {&KeyCounters::queries, &EngineStats::queries,
     "dynhist_key_queries_total", "dynhist_engine_queries_total",
     "Snapshot/estimate reads served",
     "Snapshot/estimate reads served (unknown keys included)"},
    {&KeyCounters::lease_hits, &EngineStats::lease_hits,
     "dynhist_key_snapshot_lease_hits_total",
     "dynhist_snapshot_lease_hits_total",
     "Handle-path lease revalidations served from the thread-local cache "
     "(no shared_ptr traffic)",
     "Lease revalidations served from thread-local caches (no shared_ptr "
     "traffic)"},
    {&KeyCounters::lease_misses, &EngineStats::lease_misses,
     "dynhist_key_snapshot_lease_misses_total",
     "dynhist_snapshot_lease_misses_total",
     "Handle-path lease revalidations that re-acquired the published "
     "snapshot (version moved, cold slot, or evicted)",
     "Lease revalidations that re-acquired the published snapshot"},
    {&KeyCounters::publishes, &EngineStats::publishes,
     "dynhist_key_publishes_total", "dynhist_engine_publishes_total",
     "Snapshot publications", "Snapshot publications across all keys"},
    {&KeyCounters::async_publishes, &EngineStats::async_publishes,
     "dynhist_key_async_publishes_total",
     "dynhist_engine_async_publishes_total",
     "Publications run off the publish queue"},
    {&KeyCounters::publish_queued, &EngineStats::publish_queued,
     "dynhist_key_publish_queued_total",
     "dynhist_engine_publish_queued_total",
     "Publish requests accepted onto the queue"},
    {&KeyCounters::publish_coalesced, &EngineStats::publish_coalesced,
     "dynhist_key_publish_coalesced_total",
     "dynhist_engine_publish_coalesced_total",
     "Cadence trips absorbed by an already-pending request"},
    {&KeyCounters::publish_rejected, &EngineStats::publish_rejected,
     "dynhist_key_publish_rejected_total",
     "dynhist_engine_publish_rejected_total",
     "Publish requests dropped because the queue was full"},
    {&KeyCounters::publish_skipped, &EngineStats::publish_skipped,
     "dynhist_key_publish_skipped_total",
     "dynhist_engine_publish_skipped_total",
     "Drained requests elided because a newer publication covered them"},
    {&KeyCounters::publish_nanos, &EngineStats::publish_nanos,
     "dynhist_key_publish_nanos_total",
     "dynhist_engine_publish_nanos_total",
     "Total nanoseconds spent publishing this key",
     "Total nanoseconds spent publishing"},
    {&KeyCounters::queue_wait_nanos, &EngineStats::queue_wait_nanos,
     "dynhist_key_queue_wait_nanos_total",
     "dynhist_engine_queue_wait_nanos_total",
     "Total nanoseconds this key's requests sat queued",
     "Total nanoseconds publish requests sat queued"},
};

}  // namespace

internal::KeyState::KeyState(std::string key_name,
                             const EngineOptions& options,
                             const ShardTelemetry& shard_telemetry)
    : name(std::move(key_name)) {
  shards.reserve(static_cast<std::size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    shards.push_back(
        std::make_unique<EngineShard>(options, shard_telemetry));
  }
}

HistogramEngine::HistogramEngine(const EngineOptions& options)
    : options_(options),
      telemetry_on_(options.enable_telemetry),
      engine_id_(NextEngineId()),
      trace_(telemetry_on_ ? kTraceEvents : 0) {
  DH_CHECK(options_.shards >= 1);
  DH_CHECK(options_.batch_size >= 1);
  DH_CHECK(options_.snapshot_every >= 0);
  DH_CHECK(options_.merged_buckets >= 0);
  DH_CHECK(options_.merge_workers >= 0);
  if (options_.async_publish) {
    workers_.reserve(static_cast<std::size_t>(options_.merge_workers));
    try {
      for (int i = 0; i < options_.merge_workers; ++i) {
        workers_.emplace_back([this] { MergeWorkerLoop(); });
      }
    } catch (...) {
      StopPublishWorkers();  // join the workers already started
      throw;
    }
  }
}

HistogramEngine::~HistogramEngine() {
  // Queued publish requests are commitments: drain them (via the workers'
  // stop-after-drain protocol, or inline in manual-pump mode) before the
  // registry they point into is destroyed.
  StopPublishWorkers();
}

HistogramEngine::KeyState* HistogramEngine::FindKey(
    std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  const auto it = registry_.find(key);  // transparent: no string temp
  return it == registry_.end() ? nullptr : it->second.get();
}

HistogramEngine::KeyState* HistogramEngine::FindOrCreateKey(
    std::string_view key) {
  if (KeyState* state = FindKey(key)) return state;
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  auto [it, inserted] = registry_.try_emplace(std::string(key), nullptr);
  if (inserted) {
    it->second = std::make_unique<KeyState>(
        it->first, options_,
        ShardTelemetry{telemetry_on_ ? &ingest_batch_hist_ : nullptr,
                       telemetry_on_ ? &coalesce_run_hist_ : nullptr});
  }
  return it->second.get();
}

std::size_t HistogramEngine::ShardIndexFor(const KeyState& state,
                                           std::int64_t value) {
  if (state.shards.size() == 1) return 0;
  return static_cast<std::size_t>(MixValue(value) % state.shards.size());
}

EngineShard& HistogramEngine::ShardFor(KeyState& state,
                                       std::int64_t value) const {
  return *state.shards[ShardIndexFor(state, value)];
}

void HistogramEngine::Update(std::string_view key, const UpdateOp& op) {
  KeyState* state = FindOrCreateKey(key);
  // Caller input, not an invariant: an out-of-domain value would publish
  // a zero-width piece and abort the process, so it is dropped and
  // counted before it reaches a shard or the publish cadence.
  if (!InValueDomain(op.value)) {
    state->counters.rejected_values.fetch_add(1, std::memory_order_release);
    return;
  }
  ShardFor(*state, op.value).Push(op);
  // Each counter increment follows the counted work (here and below): the
  // release store must carry the operation's writes for the EngineStats
  // acquire-read contract to hold, and the cadence then reads the count.
  std::atomic<std::uint64_t>& counter = op.kind == UpdateOp::Kind::kInsert
                                            ? state->counters.inserts
                                            : state->counters.deletes;
  counter.fetch_add(1, std::memory_order_release);
  MaybeAutoPublish(*state);
}

void HistogramEngine::Insert(std::string_view key, std::int64_t value) {
  Update(key, UpdateOp::Insert(value));
}

void HistogramEngine::Delete(std::string_view key, std::int64_t value) {
  Update(key, UpdateOp::Delete(value));
}

void HistogramEngine::InsertBatch(std::string_view key,
                                  const std::vector<std::int64_t>& values) {
  if (values.empty()) return;
  KeyState* state = FindOrCreateKey(key);
  // Partition once, then one PushMany (one buffer-lock round) per shard.
  // Out-of-domain values are dropped and counted, as in Update.
  std::vector<std::vector<UpdateOp>> per_shard(state->shards.size());
  std::size_t rejected = 0;
  for (const std::int64_t v : values) {
    if (!InValueDomain(v)) {
      ++rejected;
      continue;
    }
    per_shard[ShardIndexFor(*state, v)].push_back(UpdateOp::Insert(v));
  }
  if (rejected > 0) {
    state->counters.rejected_values.fetch_add(rejected,
                                              std::memory_order_release);
  }
  const std::size_t accepted = values.size() - rejected;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    state->shards[s]->PushMany(per_shard[s]);
  }
  state->counters.inserts.fetch_add(accepted, std::memory_order_release);
  MaybeAutoPublish(*state);
}

void HistogramEngine::RecordFeedback(const KeyHandle& handle, std::int64_t lo,
                                     std::int64_t hi, double actual) {
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  // Caller input, not an invariant: a bad observation is dropped and
  // counted, never allowed to abort the process (every key would die
  // with it) or to reach a shard histogram.
  if (lo > hi || !(actual >= 0.0) || std::isinf(actual)) {
    state.counters.rejected_feedbacks.fetch_add(1,
                                                std::memory_order_release);
    return;
  }

  // Convergence telemetry first, against the snapshot the optimizer
  // would have consulted for this predicate (a never-published key reads
  // as the empty view, estimate 0 — exactly what a caller saw).
  if (telemetry_on_) {
    double estimate = 0.0;
    if (const std::shared_ptr<const VersionedModel> published =
            state.published.load(std::memory_order_acquire)) {
      estimate = published->compiled.EstimateRange(lo, hi);
    }
    state.feedback_abs_error.Record(static_cast<std::uint64_t>(
        std::llround(std::fabs(estimate - actual))));
  }

  // Broadcast to every shard with `actual` scaled by 1/shards: a range
  // predicate does not hash to one shard the way a value does, so each
  // shard trains toward its expected share and the publish-time
  // Superimpose sums the shares back to the full cardinality. The op
  // rides the normal batch buffer and counts one update toward the
  // publish cadence.
  const double share =
      actual / static_cast<double>(state.shards.size());
  const UpdateOp op = UpdateOp::Feedback(lo, hi, share);
  for (const auto& shard : state.shards) shard->Push(op);
  state.counters.feedbacks.fetch_add(1, std::memory_order_release);
  MaybeAutoPublish(state);
}

void HistogramEngine::FlushAll() {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  for (const auto& [name, state] : registry_) {
    const std::uint64_t start_ns = trace_.NowNs();
    for (const auto& shard : state->shards) shard->Flush();
    if (telemetry_on_ && trace_.enabled()) {
      trace_.Record({telemetry::TraceEventKind::kFlush, state->name.c_str(),
                     "manual", state->epoch.load(std::memory_order_relaxed),
                     start_ns, trace_.NowNs() - start_ns, 0});
    }
  }
}

EngineSnapshot HistogramEngine::Snapshot(std::string_view key) const {
  KeyState* state = FindKey(key);
  if (state == nullptr) {
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return EngineSnapshot();
  }
  state->counters.queries.fetch_add(1, std::memory_order_release);
  std::shared_ptr<const VersionedModel> published =
      state->published.load(std::memory_order_acquire);
  if (published == nullptr) return EngineSnapshot();
  return EngineSnapshot(std::move(published));
}

EngineSnapshot HistogramEngine::RefreshSnapshot(std::string_view key) {
  return Publish(*FindOrCreateKey(key), "refresh");
}

void HistogramEngine::RefreshAll() {
  std::vector<KeyState*> states;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    states.reserve(registry_.size());
    for (const auto& [name, state] : registry_) states.push_back(state.get());
  }
  for (KeyState* state : states) {
    if (UpdateCount(*state) >
        state->published_at.load(std::memory_order_relaxed)) {
      Publish(*state, "refresh");
    }
  }
}

std::vector<std::string> HistogramEngine::Keys() const {
  std::vector<std::string> keys;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    keys.reserve(registry_.size());
    for (const auto& [name, state] : registry_) keys.push_back(name);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

EngineSnapshot HistogramEngine::PublishExternal(std::string_view key,
                                                HistogramModel model,
                                                std::uint64_t watermark) {
  KeyState& state = *FindOrCreateKey(key);
  std::lock_guard<std::mutex> publish_lock(state.publish_mu);
  // Publish's tail without its flush/merge head, so externally fed keys
  // are indistinguishable to readers, leases, and telemetry.
  return PublishModel(state, std::move(model), watermark, "external",
                      trace_.NowNs(), nullptr);
}

double HistogramEngine::EstimateRange(std::string_view key, std::int64_t lo,
                                      std::int64_t hi) const {
  // Thin wrapper: the one transparent registry find, then the shared
  // estimate body on a per-call shared_ptr acquisition (no lease — see
  // the header on why transient string lookups stay off the TLS cache).
  KeyState* state = FindKey(key);
  if (state == nullptr) {
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return 0.0;
  }
  const std::shared_ptr<const VersionedModel> published =
      state->published.load(std::memory_order_acquire);
  return EstimateOnState(*state, published.get(), lo, hi);
}

double HistogramEngine::EstimateOnState(KeyState& state,
                                        const VersionedModel* vm,
                                        std::int64_t lo,
                                        std::int64_t hi) const {
  if (vm == nullptr) {
    // Unified fallback: a key with no published snapshot answers exactly
    // like an unknown key — the implicit empty epoch-0 view, counted in
    // unknown_queries (not as a served per-key query).
    unknown_queries_.fetch_add(1, std::memory_order_release);
    return 0.0;
  }
  const std::uint64_t qn =
      state.counters.queries.fetch_add(1, std::memory_order_release);
  // Sampling every 1024th query keeps the latency histogram's two clock
  // reads off the hot path; qn is the pre-increment count, so a key's
  // first query is always sampled and the series is never empty.
  const bool sample = telemetry_on_ && (qn & 1023u) == 0u;
  const std::uint64_t t0 = sample ? trace_.NowNs() : 0;
  const double result = vm->compiled.EstimateRange(lo, hi);
  if (sample) query_latency_hist_.Record(trace_.NowNs() - t0);
  return result;
}

void HistogramEngine::CountLease(KeyState& state, bool hit) const {
  std::atomic<std::uint64_t>& cell =
      hit ? state.counters.lease_hits : state.counters.lease_misses;
  cell.fetch_add(1, std::memory_order_release);
}

KeyHandle HistogramEngine::Resolve(std::string_view key) {
  return KeyHandle(FindOrCreateKey(key));
}

KeyHandle HistogramEngine::Find(std::string_view key) const {
  return KeyHandle(FindKey(key));
}

double HistogramEngine::EstimateRange(const KeyHandle& handle,
                                      std::int64_t lo,
                                      std::int64_t hi) const {
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  return EstimateOnState(state, lease.model(), lo, hi);
}

void HistogramEngine::EstimateRangeBatch(const KeyHandle& handle,
                                         const RangeQuery* queries,
                                         std::size_t count,
                                         double* results) const {
  if (count == 0) return;
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  const VersionedModel* vm = lease.model();
  if (vm == nullptr) {
    // Unified no-snapshot fallback, batch form: every query in the span
    // is an unknown-query answer of 0.0 (see EstimateOnState).
    unknown_queries_.fetch_add(count, std::memory_order_release);
    std::fill(results, results + count, 0.0);
    return;
  }
  // One counter settle for the span; the loop body is the raw arena
  // lookup — per-query cost converges to the arena's as the batch grows.
  // Answers are bit-identical to the scalar path: same expressions, same
  // snapshot.
  state.counters.queries.fetch_add(count, std::memory_order_release);
  for (std::size_t i = 0; i < count; ++i) {
    results[i] = vm->compiled.EstimateRange(queries[i].lo, queries[i].hi);
  }
}

EngineSnapshot HistogramEngine::LeasedSnapshot(
    const KeyHandle& handle) const {
  DH_CHECK(handle.valid());
  KeyState& state = *handle.state_;
  const internal::LeaseView lease =
      internal::AcquireLease(state, engine_id_);
  CountLease(state, lease.hit);
  state.counters.queries.fetch_add(1, std::memory_order_release);
  if (lease.model() == nullptr) return EngineSnapshot();
  return EngineSnapshot(*lease.snapshot);  // the one handoff refcount op
}

double HistogramEngine::LiveTotalCount(std::string_view key) {
  KeyState* state = FindKey(key);
  if (state == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& shard : state->shards) total += shard->TotalCount();
  return total;
}

void HistogramEngine::AccumulateStats(const KeyState& state,
                                      EngineStats* stats) {
  // Acquire loads pair with the release increments (see the EngineStats
  // contract): observing a count implies observing the work it counts.
  for (const CounterRow& row : kCounters) {
    stats->*row.field +=
        (state.counters.*row.cell).load(std::memory_order_acquire);
  }
  stats->max_publish_nanos = std::max(
      stats->max_publish_nanos,
      state.counters.max_publish_nanos.load(std::memory_order_acquire));
  stats->snapshot_epoch += state.epoch.load(std::memory_order_acquire);
}

EngineStats HistogramEngine::Stats() const {
  EngineStats stats;
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  stats.keys = registry_.size();
  for (const auto& [name, state] : registry_) {
    AccumulateStats(*state, &stats);
  }
  stats.unknown_queries =
      unknown_queries_.load(std::memory_order_acquire);
  stats.queries += stats.unknown_queries;
  return stats;
}

EngineStats HistogramEngine::Stats(std::string_view key) const {
  EngineStats stats;
  const KeyState* state = FindKey(key);
  if (state == nullptr) return stats;
  stats.keys = 1;
  AccumulateStats(*state, &stats);
  return stats;
}

EngineStats HistogramEngine::Stats(const KeyHandle& handle) const {
  DH_CHECK(handle.valid());
  EngineStats stats;
  stats.keys = 1;
  AccumulateStats(*handle.state_, &stats);
  return stats;
}

void HistogramEngine::CollectMetrics(telemetry::MetricsSnapshot* out) const {
  using telemetry::MetricKind;
  const auto add_histogram = [out](const char* name, const char* help,
                                   telemetry::Labels labels,
                                   const telemetry::LogHistogram& h) {
    out->histograms.push_back(telemetry::HistogramSample{
        name, help, std::move(labels), h.Snapshot()});
  };

  // KeyStates are never erased, so the pointers outlive the shared lock.
  std::vector<const KeyState*> states;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    states.reserve(registry_.size());
    for (const auto& [name, state] : registry_) states.push_back(state.get());
  }
  std::sort(states.begin(), states.end(),
            [](const KeyState* a, const KeyState* b) {
              return a->name < b->name;
            });

  // Per key: one series per counter row plus five gauges.
  out->samples.reserve(out->samples.size() +
                       states.size() * (std::size(kCounters) + 5) +
                       std::size(kCounters) + 7);
  EngineStats total;
  total.keys = states.size();
  const std::uint64_t now = trace_.NowNs();
  for (const KeyState* state : states) {
    EngineStats key;
    AccumulateStats(*state, &key);
    const telemetry::Labels labels = {{"key", state->name}};
    for (const CounterRow& row : kCounters) {
      total.*row.field += key.*row.field;
      telemetry::Labels series_labels = labels;
      if (row.reason != nullptr) {
        series_labels.emplace_back("reason", row.reason);
      }
      out->Add(row.key_series, row.key_help, MetricKind::kCounter,
               std::move(series_labels), key.*row.field);
    }
    total.max_publish_nanos =
        std::max(total.max_publish_nanos, key.max_publish_nanos);
    total.snapshot_epoch += key.snapshot_epoch;

    out->Add("dynhist_key_snapshot_epoch",
             "Published snapshot epoch (0 = never published)",
             MetricKind::kGauge, labels, key.snapshot_epoch);
    const std::uint64_t leased =
        state->last_leased_epoch.load(std::memory_order_relaxed);
    out->Add("dynhist_key_lease_staleness_versions",
             "Publications not yet observed by any reader lease (0 while "
             "the reader fleet is current)",
             MetricKind::kGauge, labels,
             key.snapshot_epoch > leased ? key.snapshot_epoch - leased : 0);
    const std::uint64_t count = UpdateCount(*state);
    const std::uint64_t published =
        state->published_at.load(std::memory_order_relaxed);
    out->Add("dynhist_key_staleness_updates",
             "Accepted updates not yet covered by the published snapshot",
             MetricKind::kGauge, labels,
             count > published ? count - published : 0);
    const std::uint64_t last =
        state->last_publish_ns.load(std::memory_order_relaxed);
    out->Add("dynhist_key_staleness_seconds",
             "Seconds since the last publication (since engine start when "
             "never published; 0 without telemetry)",
             MetricKind::kGauge, labels,
             telemetry_on_ && now > last ? (now - last) / 1e9 : 0.0);
    std::size_t buffered = 0;
    for (const auto& shard : state->shards) buffered += shard->BufferedOps();
    out->Add("dynhist_key_buffered_ops",
             "Operations in shard buffers not yet applied to shard "
             "histograms",
             MetricKind::kGauge, labels, buffered);
    add_histogram("dynhist_key_feedback_abs_error",
                  "Absolute range-estimate error |published estimate - "
                  "actual| observed at feedback time",
                  labels, state->feedback_abs_error);
  }
  total.unknown_queries = unknown_queries_.load(std::memory_order_acquire);
  total.queries += total.unknown_queries;

  for (const CounterRow& row : kCounters) {
    if (row.engine_series == nullptr) continue;
    out->Add(row.engine_series,
             row.engine_help != nullptr ? row.engine_help : row.key_help,
             MetricKind::kCounter, {}, total.*row.field);
  }
  out->Add("dynhist_engine_keys", "Registered histogram keys",
           MetricKind::kGauge, {}, total.keys);
  out->Add("dynhist_engine_unknown_queries_total",
           "Estimate reads answered without a snapshot (unknown key, or "
           "known key never published)",
           MetricKind::kCounter, {}, total.unknown_queries);
  out->Add("dynhist_engine_max_publish_nanos",
           "Slowest single publication, ns", MetricKind::kGauge, {},
           total.max_publish_nanos);
  out->Add("dynhist_engine_snapshot_epochs",
           "Sum of per-key published epochs (equals publishes at sync "
           "points)",
           MetricKind::kGauge, {}, total.snapshot_epoch);
  out->Add("dynhist_engine_publish_queue_depth",
           "Publish requests currently queued", MetricKind::kGauge, {},
           PublishQueueDepth());
  out->Add("dynhist_trace_events_recorded_total",
           "Events ever recorded into the trace ring", MetricKind::kCounter,
           {}, trace_.recorded());
  out->Add("dynhist_trace_events_dropped_total",
           "Trace events overwritten before being read",
           MetricKind::kCounter, {}, trace_.dropped());

  add_histogram("dynhist_publish_latency_ns",
                "Publication duration (flush + merge + snapshot swap) in ns",
                {}, publish_latency_hist_);
  add_histogram("dynhist_publish_queue_wait_ns",
                "Time publish requests spent queued (enqueue to drain) in ns",
                {}, queue_wait_hist_);
  add_histogram("dynhist_ingest_batch_ops",
                "Operations per drained shard batch", {}, ingest_batch_hist_);
  add_histogram(
      "dynhist_coalesce_run_length",
      "Duplicate operations collapsed per coalesced group (runs >= 2)", {},
      coalesce_run_hist_);
  add_histogram(
      "dynhist_query_latency_ns",
      "Estimate-read latency in ns, sampled every 1024th query per key", {},
      query_latency_hist_);
}

void HistogramEngine::WriteMetricsPrometheus(std::string* out) const {
  telemetry::MetricsSnapshot snapshot;
  CollectMetrics(&snapshot);
  telemetry::WritePrometheus(snapshot, out);
}

void HistogramEngine::WriteTraceJson(std::string* out) const {
  trace_.DumpChromeTracing(out);
}

void HistogramEngine::MaybeAutoPublish(KeyState& state) {
  const std::int64_t every = options_.snapshot_every;
  if (every <= 0) return;
  const std::uint64_t count = UpdateCount(state);
  if (options_.async_publish) {
    // Async cadence measures from the newer of "last published" and "last
    // requested": a queued request already covers everything up to
    // requested_at, so only genuinely new updates re-trip.
    const std::uint64_t baseline =
        std::max(state.published_at.load(std::memory_order_relaxed),
                 state.requested_at.load(std::memory_order_relaxed));
    if (count - baseline < static_cast<std::uint64_t>(every)) return;
    RequestAsyncPublish(state, count);
    return;
  }
  const std::uint64_t published_at =
      state.published_at.load(std::memory_order_relaxed);
  if (count - published_at < static_cast<std::uint64_t>(every)) {
    return;
  }
  // try_lock: if another thread is already merging, this update's epoch
  // duty is covered by that merge — don't convoy writers on the publisher.
  std::unique_lock<std::mutex> lock(state.publish_mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (UpdateCount(state) -
          state.published_at.load(std::memory_order_relaxed) <
      static_cast<std::uint64_t>(every)) {
    return;  // lost the race to a concurrent publisher
  }
  Publish(state, std::move(lock), "sync");
}

void HistogramEngine::RequestAsyncPublish(KeyState& state,
                                          std::uint64_t count) {
  state.requested_at.store(count, std::memory_order_relaxed);
  if (state.publish_pending.exchange(true, std::memory_order_acq_rel)) {
    // A request for this key is already queued; the worker will publish
    // the key's newest state, so this trip rides along for free.
    state.counters.publish_coalesced.fetch_add(1,
                                               std::memory_order_release);
    return;
  }
  // Stamp the enqueue time before the request becomes poppable (the
  // queue mutex orders this store before the worker's read).
  if (telemetry_on_) {
    state.enqueued_at_ns.store(trace_.NowNs(), std::memory_order_relaxed);
  }
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!queue_stopping_) {
      publish_queue_.push_back(&state);
    } else {
      // The workers are stopping: refuse the request and clear the
      // pending flag, so the key's next cadence trip is refused and
      // counted the same way. RefreshSnapshot/RefreshAll still publish.
      state.publish_pending.store(false, std::memory_order_release);
      rejected = true;
    }
  }
  if (rejected) {
    state.counters.publish_rejected.fetch_add(1,
                                              std::memory_order_release);
    if (telemetry_on_ && trace_.enabled()) {
      trace_.Record({telemetry::TraceEventKind::kReject,
                     state.name.c_str(), "async",
                     state.epoch.load(std::memory_order_relaxed),
                     trace_.NowNs(), 0, 0});
    }
    return;
  }
  state.counters.publish_queued.fetch_add(1, std::memory_order_release);
  queue_cv_.notify_one();
}

bool HistogramEngine::RunOneQueuedPublish() {
  KeyState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (publish_queue_.empty()) return false;
    state = publish_queue_.front();
    publish_queue_.pop_front();
    ++publishes_in_flight_;
  }
  // Clear pending *before* merging: a cadence trip from here on enqueues a
  // fresh request rather than coalescing into this one, so no trip is ever
  // absorbed by a merge that has already read its watermark. The clear is
  // an acq_rel exchange, not a plain store: it reads the last coalescer's
  // exchange(true) and thereby acquires that trip's earlier requested_at
  // store, so the skip check below can never act on a stale requested_at
  // and elide a merge a coalesced trip still needs.
  state->publish_pending.exchange(false, std::memory_order_acq_rel);
  if (telemetry_on_) {
    // Queue wait is accounted whether the drained request publishes or
    // is elided — it is a queue property, not a merge property.
    const std::uint64_t enqueued =
        state->enqueued_at_ns.load(std::memory_order_relaxed);
    const std::uint64_t now = trace_.NowNs();
    const std::uint64_t wait = now > enqueued ? now - enqueued : 0;
    queue_wait_hist_.Record(wait);
    state->counters.queue_wait_nanos.fetch_add(wait,
                                               std::memory_order_release);
  }
  if (state->published_at.load(std::memory_order_relaxed) >=
      state->requested_at.load(std::memory_order_relaxed)) {
    // An inline RefreshSnapshot()/RefreshAll() (or a merge absorbing a
    // coalesced trip) already published past every update this request
    // asked for — the merge would republish identical state; elide it.
    state->counters.publish_skipped.fetch_add(1,
                                              std::memory_order_release);
  } else {
    Publish(*state, "async");
    state->counters.async_publishes.fetch_add(1,
                                              std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --publishes_in_flight_;
    if (publish_queue_.empty() && publishes_in_flight_ == 0) {
      drain_cv_.notify_all();
    }
  }
  return true;
}

void HistogramEngine::MergeWorkerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return queue_stopping_ || !publish_queue_.empty();
      });
      // Stop only once the queue is drained: requests accepted before the
      // stop are commitments (stop-while-queued drain semantics).
      if (queue_stopping_ && publish_queue_.empty()) return;
    }
    RunOneQueuedPublish();
  }
}

std::size_t HistogramEngine::PumpPublishes(std::size_t max_requests) {
  std::size_t ran = 0;
  while (ran < max_requests && RunOneQueuedPublish()) ++ran;
  return ran;
}

void HistogramEngine::DrainPublishes() {
  if (options_.merge_workers == 0) {
    PumpPublishes();  // manual-pump mode: drain inline
    return;
  }
  std::unique_lock<std::mutex> lock(queue_mu_);
  drain_cv_.wait(lock, [this] {
    return publish_queue_.empty() && publishes_in_flight_ == 0;
  });
}

void HistogramEngine::StopPublishWorkers() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Manual-pump mode: finish the queue inline so nothing accepted before
  // the stop is lost. (Workers drain it before they exit, and no request
  // is accepted once queue_stopping_ is set.)
  PumpPublishes();
}

std::size_t HistogramEngine::PublishQueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return publish_queue_.size();
}

EngineSnapshot HistogramEngine::Publish(KeyState& state,
                                        const char* trigger) {
  return Publish(state, std::unique_lock<std::mutex>(state.publish_mu),
                 trigger);
}

EngineSnapshot HistogramEngine::Publish(
    KeyState& state, std::unique_lock<std::mutex> publish_lock,
    const char* trigger) {
  DH_CHECK(publish_lock.owns_lock());
  const std::uint64_t start_ns = trace_.NowNs();
  // Conservative watermark: updates pushed after this load simply count
  // toward the next publication even if this merge happens to absorb them.
  const std::uint64_t watermark = UpdateCount(state);

  std::vector<HistogramModel>& models = state.model_scratch;
  models.clear();
  for (const auto& shard : state.shards) {
    HistogramModel model = shard->ExportModel();
    if (!model.Empty()) models.push_back(std::move(model));
  }
  PublishHead head;
  head.exported_ns = telemetry_on_ ? trace_.NowNs() : start_ns;
  HistogramModel merged =
      state.merger.MergeAndReduce(models, options_.merged_buckets);
  head.merged_ns = telemetry_on_ ? trace_.NowNs() : start_ns;
  return PublishModel(state, std::move(merged), watermark, trigger, start_ns,
                      &head);
}

EngineSnapshot HistogramEngine::PublishModel(KeyState& state,
                                             HistogramModel model,
                                             std::uint64_t watermark,
                                             const char* trigger,
                                             std::uint64_t start_ns,
                                             const PublishHead* head) {
  // Compile the flat query arena before the model is moved into the
  // shared state. O(pieces): ~0.4 us for a 64-bucket snapshot against
  // ~155 us for the sweep and SSBM reduction of a Publish (perfbench
  // ingest medians), so the publish-latency envelope is unchanged.
  CompiledSnapshot compiled = CompiledSnapshot::Compile(model);

  // The caller holds publish_mu, so this thread is the epoch's only
  // writer. The new epoch is stored strictly AFTER the pointer swap: a
  // reader that acquire-loads it is guaranteed to observe (at least) this
  // publication in `published` — the invariant the thread-local lease
  // cache's hit path and KeyHandle::epoch() rest on (snapshot_lease.h).
  const std::uint64_t epoch = state.epoch.load(std::memory_order_relaxed) + 1;
  auto versioned = std::make_shared<const VersionedModel>(
      VersionedModel{std::move(model), epoch, watermark,
                     std::move(compiled)});
  state.published.store(versioned, std::memory_order_release);
  state.epoch.store(epoch, std::memory_order_release);
  // Also after the swap: a queued request that sees published_at covering
  // it is skipped, and DrainPublishes promises that the covering snapshot
  // is already visible.
  if (head != nullptr) {
    state.published_at.store(watermark, std::memory_order_relaxed);
  }
  state.counters.publishes.fetch_add(1, std::memory_order_release);

  const std::uint64_t end_ns = trace_.NowNs();
  const std::uint64_t nanos = end_ns - start_ns;
  state.counters.publish_nanos.fetch_add(nanos, std::memory_order_release);
  BumpMax(state.counters.max_publish_nanos, nanos);
  if (telemetry_on_) {
    state.last_publish_ns.store(end_ns, std::memory_order_relaxed);
    publish_latency_hist_.Record(nanos);
    if (trace_.enabled()) {
      const char* key = state.name.c_str();
      if (head != nullptr) {
        trace_.Record({telemetry::TraceEventKind::kFlush, key, trigger,
                       epoch, start_ns, head->exported_ns - start_ns, 0});
        trace_.Record({telemetry::TraceEventKind::kMerge, key, trigger,
                       epoch, head->exported_ns,
                       head->merged_ns - head->exported_ns, 0});
      }
      trace_.Record({telemetry::TraceEventKind::kPublish, key, trigger,
                     epoch, start_ns, nanos, 0});
    }
  }
  return EngineSnapshot(std::move(versioned));
}

}  // namespace dynhist::engine
