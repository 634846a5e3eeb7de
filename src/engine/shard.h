// One ingest shard: a dynamic histogram behind a mutex, fed in batches.
//
// The shard is the engine's unit of write concurrency. Updates are pushed
// into a small buffer under a cheap buffer lock; when the buffer reaches
// the configured batch size, the pushing thread drains it into the
// histogram under the (much more expensive) histogram lock. Histogram
// maintenance — binary search, chi-square bookkeeping, occasional O(n)
// repartitions — is thus paid once per batch_size operations per lock
// acquisition, and threads updating different shards never contend at all.
//
// Ordering: the histogram lock is acquired while the buffer lock is still
// held, so batches are applied in exactly the order they were filled.
// Within a shard the applied operation sequence is therefore a
// linearization of the push order, which keeps insert-before-delete
// ordering for any single producer.

#ifndef DYNHIST_ENGINE_SHARD_H_
#define DYNHIST_ENGINE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/data/update_stream.h"
#include "src/engine/engine_options.h"
#include "src/histogram/histogram.h"
#include "src/histogram/model.h"
#include "src/telemetry/log_histogram.h"

namespace dynhist::engine {

/// Builds the dynamic histogram a shard maintains, per the options.
std::unique_ptr<Histogram> MakeShardHistogram(const EngineOptions& options);

/// Where a shard records its ingest distributions (engine-owned
/// log-histograms shared by every shard; null pointers disable the
/// recording site). Both are batch-granular, so the per-operation cost
/// is amortized over batch_size.
struct ShardTelemetry {
  /// Operations per drained batch (how full batches run in practice).
  telemetry::LogHistogram* batch_ops = nullptr;
  /// Run length of each coalesced group that actually collapsed
  /// duplicates (length >= 2) — the distribution of how much work
  /// coalescing saves; singleton groups are not recorded (they dominate
  /// uniform streams and would put a per-op record on the hot path).
  telemetry::LogHistogram* coalesce_run = nullptr;
};

/// A mutex-protected dynamic histogram with a batched front buffer.
class EngineShard {
 public:
  explicit EngineShard(const EngineOptions& options,
                       const ShardTelemetry& telemetry = {});

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Enqueues one operation; drains the buffer into the histogram when it
  /// reaches the batch size. Thread-safe.
  void Push(const UpdateOp& op);

  /// Enqueues many operations under one buffer-lock round; drains once if
  /// the buffer reaches the batch size. Thread-safe.
  void PushMany(const std::vector<UpdateOp>& ops);

  /// Drains any buffered operations into the histogram. Thread-safe.
  void Flush();

  /// Flushes, then exports the shard histogram's model. Thread-safe.
  HistogramModel ExportModel();

  /// Flushes, then reports the histogram's live mass. Thread-safe.
  double TotalCount();

  /// Operations sitting in the front buffer, not yet applied to the
  /// histogram. Thread-safe (takes the buffer lock); diagnostic.
  std::size_t BufferedOps() const;

 private:
  // Swaps the buffer out under `buffer_lock`, takes hist_mu_ before
  // releasing it, and applies the batch: the one drain of Push, PushMany
  // and Flush.
  void Drain(std::unique_lock<std::mutex> buffer_lock);

  // Applies `batch` under hist_mu_ (held by Drain). Duplicate values
  // collapse into weighted InsertN/DeleteN calls (inserts first per
  // value, groups in first-occurrence order, via one pass through a
  // value-to-group hash table — the batch itself is not reordered), so
  // the histogram pays one maintenance step per distinct value. Feedback
  // ops apply one by one, in push order, between the data runs.
  void ApplyLocked(const std::vector<UpdateOp>& batch);

  // Coalesces batch[begin, end) by value and applies the weighted groups
  // in first-occurrence order (under hist_mu_). Data ops only.
  void CoalesceAndApply(const std::vector<UpdateOp>& batch, std::size_t begin,
                        std::size_t end);

  const int batch_size_;
  const ShardTelemetry telemetry_;

  mutable std::mutex buffer_mu_;
  std::vector<UpdateOp> buffer_;  // guarded by buffer_mu_

  std::mutex hist_mu_;
  std::unique_ptr<Histogram> histogram_;   // guarded by hist_mu_

  // One coalesced group: `inserts`/`deletes` operations on `value`.
  struct Group {
    std::int64_t value = 0;
    std::int64_t inserts = 0;
    std::int64_t deletes = 0;
  };
  // Coalescing scratch, reused across batches (guarded by hist_mu_): the
  // groups in first-occurrence order, and the open-addressing table that
  // maps a value to its group (slot = group index + 1, 0 = empty).
  std::vector<Group> group_scratch_;
  std::vector<std::uint32_t> slot_scratch_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_SHARD_H_
