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
// over the inputs' pieces (O(total pieces * log sites)), and the SSBM
// reduction consumes the composite's pieces directly as weighted slices.
// SSBM seeds a tournament tree with the pair keys in O(pieces), then
// repairs three tree slots per merge in O(log pieces) each — publish cost
// scales with bucket counts, never with the attribute domain. Measured on
// the perfbench ingest workload (8 DADO shards x 64 buckets, an ~820-piece
// composite), medians: loaded publish ~410 us, of which merge ~280 us;
// unloaded reduce ~125 us.

#ifndef DYNHIST_HISTOGRAM_MERGE_H_
#define DYNHIST_HISTOGRAM_MERGE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/histogram/model.h"

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
/// borders only). Zero-density regions (below 1e-12 per cell) are dropped,
/// so a reduced model's support is the composite's nonzero support.
HistogramModel ReduceWithSsbm(const HistogramModel& model,
                              std::int64_t buckets);

/// Reusable merge pipeline: superimpose + optional SSBM reduction with all
/// intermediate buffers (sweep cursors, composite pieces, reduction slices)
/// retained across calls, so a steady-state publisher allocates nothing
/// proportional to the inputs. Not thread-safe; the engine keeps one per
/// key under its publish lock.
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
  std::vector<HistogramModel::Piece> pieces_;  // composite, exactly tiling
  std::vector<HistogramModel::Piece> slices_;  // nonzero pieces for SSBM

  struct HeapEntry {
    double x = 0.0;
    std::uint32_t cursor = 0;
    bool operator>(const HeapEntry& other) const {
      if (x != other.x) return x > other.x;
      return cursor > other.cursor;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap_;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_MERGE_H_
