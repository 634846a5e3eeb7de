// Immutable engine snapshots: the read side of the concurrent engine.
//
// A snapshot is a HistogramModel plus the epoch at which it was published
// and the model's CompiledSnapshot arena, built at every publish:
// contiguous border / prefix-CDF arrays that answer EstimateRange with two
// branch-free upper_bound lookups instead of a piece-list walk. The engine
// publishes snapshots by atomically swapping a shared_ptr, so a reader's
// EngineSnapshot is a stable view: it stays valid and unchanged for as
// long as the reader holds it, no matter how many updates or newer
// publications happen concurrently.
//
// Estimation here touches no locks and allocates nothing: queries read the
// arena, bit-identical to the model's piece walk by the CompiledSnapshot
// parity contract. The implicit epoch-0 snapshot has an absent arena,
// which answers 0 everywhere, as its empty model does.

#ifndef DYNHIST_ENGINE_SNAPSHOT_H_
#define DYNHIST_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/model.h"

namespace dynhist::engine {

/// A published model together with its publication epoch. Epoch 0 is the
/// implicit empty snapshot a key has before its first publication.
struct VersionedModel {
  HistogramModel model;
  std::uint64_t epoch = 0;

  /// Updates (per the key's accepted-update counter) this publication
  /// covers: the counter value the publisher observed before merging.
  /// Lets readers — and the async-publish tests — tell which ingest
  /// prefix a snapshot reflects; coalesced publish requests all land in
  /// one publication whose watermark is the newest of them.
  std::uint64_t watermark = 0;

  /// The model compiled to its flat prefix-CDF arena at publish time.
  /// Absent (attached() == false) only for the implicit epoch-0 snapshot.
  CompiledSnapshot compiled;
};

/// Shared, immutable view of one key's histogram at a publication epoch.
/// Cheap to copy (one shared_ptr); safe to use from any thread.
class EngineSnapshot {
 public:
  /// An empty epoch-0 snapshot (zero mass everywhere).
  EngineSnapshot() : state_(std::make_shared<const VersionedModel>()) {}

  explicit EngineSnapshot(std::shared_ptr<const VersionedModel> state)
      : state_(std::move(state)) {}

  /// Publication epoch; increments by 1 per publication of the key.
  std::uint64_t epoch() const { return state_->epoch; }

  /// Accepted-update count this snapshot covers (see VersionedModel).
  std::uint64_t watermark() const { return state_->watermark; }

  /// The underlying immutable model.
  const HistogramModel& model() const { return state_->model; }

  /// The flat query arena compiled at publish time, or nullptr for the
  /// empty epoch-0 view. Exposed for the arena-vs-piece-walk parity
  /// tests.
  const CompiledSnapshot* compiled() const {
    return state_->compiled.attached() ? &state_->compiled : nullptr;
  }

  /// Total mass the snapshot believes the key holds.
  double TotalCount() const { return state_->model.TotalCount(); }

  /// Estimated number of tuples with lo <= A <= hi (A = v is the range
  /// [v, v]). For selectivities (result fractions of the relation), wrap
  /// model() in a SelectivityEstimator.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const {
    return state_->compiled.EstimateRange(lo, hi);
  }

 private:
  std::shared_ptr<const VersionedModel> state_;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_SNAPSHOT_H_
