// Successive Similar Bucket Merge (SSBM) static histogram (§5).
//
// SSBM starts from the exact histogram (one bucket per non-empty distinct
// value) and repeatedly merges the adjacent bucket pair whose *merged*
// bucket would have the smallest deviation rho_M (Eq. 4) — "merging the
// most similar buckets first" — until only the requested number of buckets
// remains. The paper reports SSBM quality comparable to V-Optimal at a
// fraction of the construction cost. The paper's selection rescans every
// pair per merge (O(D^2)). Ours keeps the pair keys in a tournament tree
// (tournament_tree.h) and replays the O(log D) matches above the three
// pair slots a merge changes, O(D log D) in all; among equal keys both
// take the leftmost pair, so they build bit-identical histograms, ties
// included. Under the default options (kSquared, kMergedDeviation) the
// tree only finishes the tail: first, batched rounds of O(live) passes
// over the live buckets merge at once every pair the rule provably merges
// with its current key (a local minimum by more than twice a proven
// floating-point error bound, and below the key that M merges cannot
// reach), which leaves the partition unchanged bit for bit. On the
// engine's ~835-slice composites the rounds make about 95% of the merges.
// kAbsolute, kDeviationIncrease and use_quadratic_scan take no rounds.

#ifndef DYNHIST_HISTOGRAM_SSBM_H_
#define DYNHIST_HISTOGRAM_SSBM_H_

#include <cstdint>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/histogram/deviation.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Tuning knobs for SSBM construction.
struct SsbmOptions {
  /// Deviation measure inside Eq. (4). The paper uses squared deviations.
  DeviationPolicy policy = DeviationPolicy::kSquared;

  /// What the merge selection minimizes (ablation, DESIGN.md):
  enum class MergeKey {
    kMergedDeviation,    ///< rho of the merged bucket (the paper's rule)
    kDeviationIncrease,  ///< rho_M - rho_1 - rho_2 (delta-rho alternative)
  };
  MergeKey merge_key = MergeKey::kMergedDeviation;

  /// Select each merge by a full scan over the surviving adjacent pairs —
  /// the paper's "quadratic in the number of distinct attribute values"
  /// cost model (§5) — instead of the default rounds and tournament tree.
  /// Same partition, bit-identical output, different complexity; used by
  /// the Fig. 13 cost benchmark and as the tests' reference.
  bool use_quadratic_scan = false;
};

/// Builds an SSBM histogram with at most `buckets` buckets.
HistogramModel BuildSsbm(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets, const SsbmOptions& options = {});

/// Slice-input SSBM: partitions weighted piecewise-uniform slices instead
/// of per-value frequencies. `slices` must be ascending, non-overlapping,
/// each with positive width and non-negative count. A distinct integer
/// value is exactly the width-1 slice [v, v+1), and on such input this
/// overload reproduces the per-value overload bit for bit (the deviation of
/// a bucket uses the integral of its squared density, which equals the sum
/// of squared frequencies when every slice is one cell). Wider slices are
/// treated as already-uniform runs — merges split only at slice borders —
/// which is what lets the distributed/engine snapshot reduction feed a
/// superimposed composite to SSBM without enumerating integer cells
/// (O(pieces) instead of O(domain)).
HistogramModel BuildSsbm(const std::vector<HistogramModel::Piece>& slices,
                         std::int64_t buckets, const SsbmOptions& options = {});

/// Convenience overload reading the current state of a FrequencyVector.
HistogramModel BuildSsbm(const FrequencyVector& data, std::int64_t buckets,
                         const SsbmOptions& options = {});

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_SSBM_H_
