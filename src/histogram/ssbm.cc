#include "src/histogram/ssbm.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/common/check.h"
#include "src/histogram/static_common.h"
#include "src/histogram/tournament_tree.h"

namespace dynhist {

namespace {

using Slice = HistogramModel::Piece;
using MergeKey = SsbmOptions::MergeKey;

// Live bucket state during merging, over piecewise-uniform input slices (a
// distinct integer value is the width-1 slice [v, v+1)). Extents are *data*
// extents [first slice left, last slice right); the gap between two buckets
// joins the merged bucket's extent when they merge (its zero density then
// counts toward the deviation, per Eq. 3/5 with j over all domain values).
// `sum_dsq` is the integral of the squared density over the covered slices,
// which for width-1 slices is exactly the paper's sum of squared
// frequencies — so unit-slice input reproduces the per-value algorithm bit
// for bit. The exported model uses the convention of ModelFromPieceSlices.
//
// Bucket ids ascend along the list and a merge folds the right bucket into
// the left one, so bucket `id` always starts at slice `id`: its left border
// is slices[id].left, and its last slice is next - 1 (d - 1 for the last
// bucket). Deriving those keeps the merge loop's state at 32 bytes.
struct LiveBucket {
  double right = 0.0;    // right border of the last slice
  double total = 0.0;    // sum of slice counts
  double sum_dsq = 0.0;  // integral of density^2 over the covered slices
  std::int32_t prev = -1;
  std::int32_t next = -1;
};
static_assert(sizeof(LiveBucket) == 32);

// Merges `slices` down to `target` buckets. The policy and the merge key
// are template arguments, so the selection's key evaluations carry no
// per-call option branches.
template <DeviationPolicy kPolicy, MergeKey kKey>
HistogramModel MergeToBudget(const std::vector<Slice>& slices,
                             std::size_t target, bool quadratic_scan) {
  const std::size_t d = slices.size();
  // The exact histogram: one bucket per input slice (rho = 0).
  std::vector<LiveBucket> bucket(d);
  for (std::size_t i = 0; i < d; ++i) {
    const Slice& s = slices[i];
    bucket[i] = {s.right, s.count, s.count * s.count / s.Width(),
                 static_cast<std::int32_t>(i) - 1,
                 i + 1 < d ? static_cast<std::int32_t>(i) + 1 : -1};
  }
  const auto last_slice = [&](std::size_t id) {
    return bucket[id].next < 0 ? d - 1
                               : static_cast<std::size_t>(bucket[id].next) - 1;
  };
  // The deviation rho (Eq. 3 or 5) of one bucket over slices [first, last].
  const auto deviation = [&](std::size_t first, std::size_t last, double left,
                             double right, double total, double sum_dsq) {
    const double width = right - left;
    if constexpr (kPolicy == DeviationPolicy::kSquared) {
      return std::max(0.0, sum_dsq - total * total / width);
    } else {
      // Absolute deviation requires the individual densities; O(span).
      const double avg = total / width;
      double dev = 0.0;
      double covered = 0.0;
      for (std::size_t i = first; i <= last; ++i) {
        const double w = slices[i].Width();
        dev += w * std::fabs(slices[i].count / w - avg);
        covered += w;
      }
      dev += (width - covered) * avg;  // gap zeros deviate by avg each
      return dev;
    }
  };
  // The merge key of live bucket `i` and its successor.
  const auto pair_key = [&](std::size_t i) {
    const LiveBucket& a = bucket[i];
    const auto j = static_cast<std::size_t>(a.next);
    const LiveBucket& b = bucket[j];
    const double left = slices[i].left;
    const std::size_t b_last = last_slice(j);
    const double rho_m = deviation(i, b_last, left, b.right, a.total + b.total,
                                   a.sum_dsq + b.sum_dsq);
    if constexpr (kKey == MergeKey::kMergedDeviation) {
      return rho_m;
    } else {
      return rho_m - deviation(i, j - 1, left, a.right, a.total, a.sum_dsq) -
             deviation(j, b_last, slices[j].left, b.right, b.total,
                       b.sum_dsq);
    }
  };

  // Pair slot i holds the merge key of bucket i and its successor while
  // both are live. Bucket ids ascend along the list, so slot order is value
  // order and the tree's winner — the leftmost smallest key — is the pair
  // the paper's scan picks. A merge changes three slots: the absorbed
  // bucket's (now empty), the merged bucket's and its predecessor's.
  internal::TournamentTree<std::less<double>> pairs;
  const auto repair_pair = [&](std::size_t i) {
    if (bucket[i].next < 0) {
      pairs.Clear(i);
    } else {
      pairs.Set(i, pair_key(i));
    }
    pairs.Repair(i, i);
  };
  // The paper's cost model: every merge rescans all surviving adjacent
  // pairs (O(D) per merge, O(D^2) total).
  const auto scan = [&] {
    std::size_t best = d;
    double best_key = 0.0;
    for (std::size_t i = 0; bucket[i].next >= 0;
         i = static_cast<std::size_t>(bucket[i].next)) {
      const double key = pair_key(i);
      if (best == d || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    return best;
  };
  if (!quadratic_scan) {
    pairs.Reset(d - 1);
    for (std::size_t i = 0; i + 1 < d; ++i) pairs.Set(i, pair_key(i));
    pairs.Repair(0, d - 2);
  }

  for (std::size_t live = d; live > target; --live) {
    const std::size_t best = quadratic_scan ? scan() : pairs.Winner().index;
    DH_CHECK(best < d);
    // Merge the successor into bucket `best`.
    LiveBucket& a = bucket[best];
    const auto gone = static_cast<std::size_t>(a.next);
    const LiveBucket& g = bucket[gone];
    a.right = g.right;
    a.total = a.total + g.total;
    a.sum_dsq = a.sum_dsq + g.sum_dsq;
    a.next = g.next;
    if (a.next >= 0) {
      bucket[static_cast<std::size_t>(a.next)].prev =
          static_cast<std::int32_t>(best);
    }
    if (!quadratic_scan) {
      if (gone < pairs.size()) {
        pairs.Clear(gone);
        pairs.Repair(gone, gone);
      }
      repair_pair(best);
      if (a.prev >= 0) repair_pair(static_cast<std::size_t>(a.prev));
    }
  }

  // Export the surviving buckets in value order. The head is always bucket
  // 0: merges fold right buckets into left ones.
  std::vector<internal::BucketSlice> out;
  out.reserve(target);
  for (std::size_t i = 0;; i = static_cast<std::size_t>(bucket[i].next)) {
    const std::size_t last = last_slice(i);
    out.push_back({i, last, i == last && slices[i].Width() == 1.0});
    if (bucket[i].next < 0) break;
  }
  DH_CHECK(out.size() == target);
  return internal::ModelFromPieceSlices(slices, out);
}

}  // namespace

HistogramModel BuildSsbm(const std::vector<Slice>& slices,
                         std::int64_t buckets, const SsbmOptions& options) {
  DH_CHECK(buckets >= 1);
  if (slices.empty()) return HistogramModel();
  const std::size_t d = slices.size();
  DH_CHECK(d <= static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()));
  for (std::size_t i = 0; i < d; ++i) {
    DH_CHECK(slices[i].right > slices[i].left && slices[i].count >= 0.0);
    // Same overlap tolerance as the HistogramModel constructor.
    if (i > 0) DH_CHECK(slices[i].left >= slices[i - 1].right - 1e-9);
  }
  if (static_cast<std::size_t>(buckets) >= d) {
    std::vector<internal::BucketSlice> out(d);
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = {i, i, /*singular=*/slices[i].Width() == 1.0};
    }
    return internal::ModelFromPieceSlices(slices, out);
  }

  const auto target = static_cast<std::size_t>(buckets);
  const bool scan = options.use_quadratic_scan;
  const bool merged = options.merge_key == MergeKey::kMergedDeviation;
  if (options.policy == DeviationPolicy::kSquared) {
    return merged ? MergeToBudget<DeviationPolicy::kSquared,
                                  MergeKey::kMergedDeviation>(slices, target,
                                                              scan)
                  : MergeToBudget<DeviationPolicy::kSquared,
                                  MergeKey::kDeviationIncrease>(slices, target,
                                                                scan);
  }
  return merged ? MergeToBudget<DeviationPolicy::kAbsolute,
                                MergeKey::kMergedDeviation>(slices, target,
                                                            scan)
                : MergeToBudget<DeviationPolicy::kAbsolute,
                                MergeKey::kDeviationIncrease>(slices, target,
                                                              scan);
}

HistogramModel BuildSsbm(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets, const SsbmOptions& options) {
  std::vector<Slice> slices;
  slices.reserve(entries.size());
  for (const ValueFreq& e : entries) {
    const double left = static_cast<double>(e.value);
    slices.push_back({left, left + 1.0, e.freq});
  }
  return BuildSsbm(slices, buckets, options);
}

HistogramModel BuildSsbm(const FrequencyVector& data, std::int64_t buckets,
                         const SsbmOptions& options) {
  return BuildSsbm(data.NonZeroEntries(), buckets, options);
}

}  // namespace dynhist
