// The snapshot-merge core: lossless superposition plus SSBM reduction.
//
// §8 builds a union-level histogram of shared-nothing sites by
// superimposing their local histograms (a border wherever any input has
// one, masses added) and reducing the composite back to the bucket
// budget by treating it as a data set and re-partitioning with SSBM. The
// concurrent engine publishes the same way (each ingest shard is a
// "site"), and so does the distributed aggregator (each remote site is
// one), so this module sits under both.
//
// Domain-independent end to end: Superimpose runs one k-way border sweep
// over the inputs' pieces, taking the next border from a tournament tree
// (tournament_tree.h) with one slot per input (O(total pieces * log
// sites)), and the SSBM reduction consumes the composite's pieces directly
// as weighted slices. SSBM makes most of its merges in batched O(pieces)
// rounds of provably forced merges (ssbm.h), then finishes the tail on a
// second tournament tree, repairing three slots per merge in
// O(log pieces) — publish cost scales with bucket counts, never with the
// attribute domain. Measured on the perfbench ingest workload (8 DADO
// shards x 64 buckets, an ~820-piece composite), traced medians: loaded
// publish ~265 us, of which merge ~155 us; unloaded sweep ~47 us and
// reduce ~57 us.

#ifndef DYNHIST_HISTOGRAM_MERGE_H_
#define DYNHIST_HISTOGRAM_MERGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/histogram/model.h"
#include "src/histogram/tournament_tree.h"

namespace dynhist {

/// Lossless superposition of histogram models: the result has a border
/// wherever any input has one, and each elementary range carries the sum of
/// the inputs' masses. The result's CDF is exactly the sum of the inputs'.
/// Elementary ranges covered by at least one input keep a piece even at
/// zero mass, so the merged support is exactly the union of the inputs'
/// supports (zero-coverage gaps between pieces stay gaps).
HistogramModel Superimpose(const std::vector<HistogramModel>& models);

/// Reduces a composite model to `buckets` buckets with SSBM, feeding its
/// pieces to SSBM as weighted uniform slices (bucket borders fall on piece
/// borders only). Only zero-count pieces are dropped, so a reduced model's
/// support is the composite's nonzero support and mass at any density,
/// however sparse, survives the reduction.
HistogramModel ReduceWithSsbm(const HistogramModel& model,
                              std::int64_t buckets);

/// Reusable merge pipeline: superimpose + optional SSBM reduction. The
/// sweep's buffers (cursors, border tree, composite pieces, reduction
/// slices) are retained across calls; each call still allocates SSBM's
/// scratch (bucket, key, pick and selection arrays, and the tail's pair
/// tree) and the returned model's vectors. Not thread-safe; the engine
/// keeps one per key under its publish lock.
class SnapshotMerger {
 public:
  /// Lossless superposition (same result as the free Superimpose).
  HistogramModel Superimpose(const std::vector<HistogramModel>& models);

  /// Superimpose + reduce to `buckets` (<= 0 publishes the composite
  /// unreduced). The composite model is never materialized: the sweep's
  /// pieces stream straight into the slice-input SSBM.
  HistogramModel MergeAndReduce(const std::vector<HistogramModel>& models,
                                std::int64_t buckets);

 private:
  // One input model's position in the k-way border sweep. Each piece
  // contributes a left event (density on, coverage +1) and a right event
  // (density off, coverage -1); per model the event positions are
  // non-decreasing (clamped against the model's 1e-9 overlap tolerance).
  struct Cursor {
    const std::vector<HistogramModel::Piece>* pieces = nullptr;
    std::size_t index = 0;        // current piece
    bool at_right = false;        // next event is the piece's right border
    double x = 0.0;               // next event position
    double active_density = 0.0;  // density added by the current left event
  };

  // Runs the sweep over `models` into pieces_.
  void SweepInto(const std::vector<HistogramModel>& models);

  std::vector<Cursor> cursors_;
  // Slot i holds cursor i's next event position while it has one. The
  // winner, the lowest cursor among the smallest positions, is the next
  // event in (position, cursor) order.
  internal::TournamentTree<std::less<double>> next_;
  std::vector<HistogramModel::Piece> pieces_;  // composite, exactly tiling
  std::vector<HistogramModel::Piece> slices_;  // nonzero pieces for SSBM
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_MERGE_H_
