#include "src/engine/shard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/check.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/st_feedback.h"

namespace dynhist::engine {

std::unique_ptr<Histogram> MakeShardHistogram(const EngineOptions& options) {
  DH_CHECK(options.shard_buckets >= 1);
  switch (options.kind) {
    case ShardHistogramKind::kDynamicCompressed:
      return std::make_unique<DynamicCompressedHistogram>(
          DynamicCompressedConfig{.buckets = options.shard_buckets});
    case ShardHistogramKind::kDynamicVOpt:
      return std::make_unique<DynamicVOptHistogram>(
          DynamicVOptConfig{.buckets = options.shard_buckets,
                            .policy = DeviationPolicy::kSquared});
    case ShardHistogramKind::kDynamicAdo:
      return std::make_unique<DynamicVOptHistogram>(
          DynamicVOptConfig{.buckets = options.shard_buckets,
                            .policy = DeviationPolicy::kAbsolute});
    case ShardHistogramKind::kStFeedback: {
      StFeedbackConfig config = options.st_feedback;
      config.buckets = options.shard_buckets;
      return std::make_unique<StFeedbackHistogram>(config);
    }
  }
  DH_CHECK(false);
  return nullptr;
}

EngineShard::EngineShard(const EngineOptions& options,
                         const ShardTelemetry& telemetry)
    : batch_size_(options.batch_size),
      telemetry_(telemetry),
      histogram_(MakeShardHistogram(options)) {
  DH_CHECK(batch_size_ >= 1);
  buffer_.reserve(static_cast<std::size_t>(batch_size_));
}

void EngineShard::Push(const UpdateOp& op) {
  std::unique_lock<std::mutex> buffer_lock(buffer_mu_);
  buffer_.push_back(op);
  if (buffer_.size() >= static_cast<std::size_t>(batch_size_)) {
    Drain(std::move(buffer_lock));
  }
}

void EngineShard::PushMany(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return;
  std::unique_lock<std::mutex> buffer_lock(buffer_mu_);
  buffer_.insert(buffer_.end(), ops.begin(), ops.end());
  if (buffer_.size() >= static_cast<std::size_t>(batch_size_)) {
    Drain(std::move(buffer_lock));
  }
}

void EngineShard::Flush() {
  std::unique_lock<std::mutex> buffer_lock(buffer_mu_);
  if (!buffer_.empty()) Drain(std::move(buffer_lock));
}

void EngineShard::Drain(std::unique_lock<std::mutex> buffer_lock) {
  // Take the histogram lock *before* releasing the buffer lock so batches
  // reach the histogram in fill order, then apply outside the buffer lock
  // so other producers can refill immediately.
  std::vector<UpdateOp> batch;
  batch.reserve(static_cast<std::size_t>(batch_size_));
  buffer_.swap(batch);
  std::unique_lock<std::mutex> hist_lock(hist_mu_);
  buffer_lock.unlock();
  ApplyLocked(batch);
}

HistogramModel EngineShard::ExportModel() {
  Flush();
  std::lock_guard<std::mutex> hist_lock(hist_mu_);
  return histogram_->Model();
}

double EngineShard::TotalCount() {
  Flush();
  std::lock_guard<std::mutex> hist_lock(hist_mu_);
  return histogram_->TotalCount();
}

std::size_t EngineShard::BufferedOps() const {
  std::lock_guard<std::mutex> buffer_lock(buffer_mu_);
  return buffer_.size();
}

void EngineShard::ApplyLocked(const std::vector<UpdateOp>& batch) {
  if (telemetry_.batch_ops != nullptr) {
    telemetry_.batch_ops->Record(batch.size());
  }
  // Coalesce in batch_size_-bounded chunks: Push-path batches are one
  // chunk; an oversized PushMany/Flush drain is split so the histogram
  // still adapts (repartitions) at the configured cadence instead of
  // absorbing the whole drain as a handful of giant weighted steps. A
  // chunk of one op is that op: InsertN(v, 1) and DeleteN(v, 1) take the
  // single-op steps, so batch_size 1 replays ops one by one in push order.
  const auto chunk = static_cast<std::size_t>(batch_size_);
  for (std::size_t begin = 0; begin < batch.size(); begin += chunk) {
    const std::size_t end = std::min(batch.size(), begin + chunk);
    // Feedback ops must not enter the by-value data coalesce: segment the
    // chunk into maximal data / feedback runs, preserving their relative
    // order (the feedback update rule reads the frequencies data ops
    // write). Feedback applies op by op in push order: the error-driven
    // rule is order-dependent, so even a repeated predicate takes one
    // step per observation.
    std::size_t seg = begin;
    while (seg < end) {
      const bool feedback = batch[seg].kind == UpdateOp::Kind::kFeedback;
      std::size_t stop = seg + 1;
      while (stop < end &&
             (batch[stop].kind == UpdateOp::Kind::kFeedback) == feedback) {
        ++stop;
      }
      if (feedback) {
        for (std::size_t i = seg; i < stop; ++i) {
          histogram_->ApplyFeedback(batch[i].value, batch[i].hi,
                                    batch[i].actual);
        }
      } else {
        CoalesceAndApply(batch, seg, stop);
      }
      seg = stop;
    }
  }
}

void EngineShard::CoalesceAndApply(const std::vector<UpdateOp>& batch,
                                   std::size_t begin, std::size_t end) {
  // Collapse duplicate values into one weighted insert plus one weighted
  // delete, but apply the groups in first-occurrence order: a value-sorted
  // apply order would turn every batch into a sorted-insertion workload
  // (the paper's hardest update pattern), while first-occurrence order
  // keeps the stream's arrival shape. Applying a value's inserts before
  // its deletes preserves the per-producer insert-before-delete ordering
  // the engine guarantees per value (cross-value order inside a batch is
  // not observable through the histogram's value-independent maintenance).
  //
  // One pass builds the groups: a value's group is appended at its first
  // occurrence, so they come out in first-occurrence order, and a linear-
  // probing table at load factor <= 1/2 finds the group of a repeat.
  const std::size_t slots = std::bit_ceil(2 * (end - begin));
  const int shift = 64 - std::countr_zero(slots);
  slot_scratch_.assign(slots, 0);
  group_scratch_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    const UpdateOp& op = batch[i];
    // Fibonacci hashing: the product's top bits index the table.
    std::size_t slot = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(op.value) * 0x9e3779b97f4a7c15ULL) >>
        shift);
    while (slot_scratch_[slot] != 0 &&
           group_scratch_[slot_scratch_[slot] - 1].value != op.value) {
      slot = (slot + 1) & (slots - 1);
    }
    if (slot_scratch_[slot] == 0) {
      group_scratch_.push_back(Group{op.value, 0, 0});
      slot_scratch_[slot] = static_cast<std::uint32_t>(group_scratch_.size());
    }
    Group& group = group_scratch_[slot_scratch_[slot] - 1];
    if (op.kind == UpdateOp::Kind::kInsert) {
      ++group.inserts;
    } else {
      ++group.deletes;
    }
  }
  for (const Group& g : group_scratch_) {
    const std::int64_t run = g.inserts + g.deletes;
    if (run >= 2 && telemetry_.coalesce_run != nullptr) {
      telemetry_.coalesce_run->Record(static_cast<std::uint64_t>(run));
    }
    if (g.inserts > 0) histogram_->InsertN(g.value, g.inserts);
    if (g.deletes > 0) histogram_->DeleteN(g.value, g.deletes);
  }
}

}  // namespace dynhist::engine
