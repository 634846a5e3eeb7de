// Dynamic V-Optimal (DVO) and Dynamic Average-Deviation Optimal (DADO)
// histograms (§4, §4.1) — the paper's core contribution.
//
// Each bucket stores its left border and the point counts of its
// sub-buckets (two equal-width halves by default). The per-bucket deviation
// rho approximates Eq. (3) (squared deviations, DVO) or Eq. (5) (absolute
// deviations, DADO) using the sub-bucket counts in place of the unknown
// individual frequencies. Repartitioning is a split+merge pair: the bucket
// with the largest rho is split along a sub-bucket border (the new buckets
// have equal sub-counts and hence zero rho — splitting never increases rho)
// and the adjacent pair with the smallest merged rho is merged (merging
// never decreases rho, for the squared policy). By Theorem 4.1 each
// selection is an arg-max or arg-min over cached values, ties to the lowest
// index; two tournament trees keep both on top. An update repairs the tree
// slots of the bucket it touched and of that bucket's two pairs, O(log n);
// a split+merge repairs the slots between its two positions. Only a
// repartition or an out-of-range insert pays O(n), to shift the bucket
// vectors. One DADO Insert/Delete at n = 64 takes a median ~180-200 ns
// on the perfbench ingest workload. The pair executes only when it strictly
// lowers the objective (min delta-rho < 0; the paper's "most aggressive"
// upper bound of 0).
//
// Deletions decrement the counter nearest the deleted value, spilling to
// the closest non-empty bucket when necessary (§7.3).
//
// The sub-bucket count is configurable (2-4) to reproduce the paper's
// exploration of alternatives ("two or three comparable, finer subdivisions
// worse", §4); 2 equal-width sub-buckets is the paper's choice and default.

#ifndef DYNHIST_HISTOGRAM_DYNAMIC_VOPT_H_
#define DYNHIST_HISTOGRAM_DYNAMIC_VOPT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/histogram/deviation.h"
#include "src/histogram/histogram.h"
#include "src/histogram/model.h"
#include "src/histogram/tournament_tree.h"

namespace dynhist {

/// Configuration of a DVO / DADO histogram.
struct DynamicVOptConfig {
  /// Number of buckets (n). Derive from memory via BucketBudget() with
  /// BucketLayout::kBorderTwoCounts.
  std::int64_t buckets = 64;
  /// kAbsolute => DADO (the paper's best dynamic histogram);
  /// kSquared  => DVO.
  DeviationPolicy policy = DeviationPolicy::kAbsolute;
  /// Equal-width sub-buckets per bucket, 2..4 (ablation; paper uses 2).
  int sub_buckets = 2;
};

/// Incrementally maintained deviation-optimal histogram (DVO / DADO).
class DynamicVOptHistogram final : public Histogram {
 public:
  explicit DynamicVOptHistogram(const DynamicVOptConfig& config);

  void Insert(std::int64_t value) override;
  void Delete(std::int64_t value, std::int64_t live_copies_before) override;
  void InsertN(std::int64_t value, std::int64_t count) override;
  void DeleteN(std::int64_t value, std::int64_t count) override;
  HistogramModel Model() const override;
  double TotalCount() const override { return total_; }
  std::string Name() const override {
    return config_.policy == DeviationPolicy::kAbsolute ? "DADO" : "DVO";
  }

  /// Number of executed split+merge reorganizations.
  std::int64_t RepartitionCount() const { return repartitions_; }

  /// True while the histogram is still collecting its first n distinct
  /// points.
  bool InLoadingPhase() const { return loading_; }

  /// Current deviation rho of bucket `index` (exposed for tests).
  double BucketRhoForTest(std::size_t index) const { return rho_[index]; }

  /// Number of buckets currently held.
  std::size_t BucketCount() const { return buckets_.size(); }

 private:
  static constexpr int kMaxSubBuckets = 4;
  // A bucket narrower than this cannot be split (halves would be narrower
  // than one attribute-value cell).
  static constexpr double kMinSplitWidth = 2.0;

  struct VBucket {
    double left = 0.0;
    double right = 0.0;  // == next bucket's left; kept for convenience
    std::array<double, kMaxSubBuckets> sub = {0.0, 0.0, 0.0, 0.0};

    double Width() const { return right - left; }
    double Total(int k) const {
      double t = 0.0;
      for (int h = 0; h < k; ++h) t += sub[static_cast<std::size_t>(h)];
      return t;
    }
  };

  // Uniform-density fragment used for rho evaluation and re-binning.
  struct Fragment {
    double left, right, count;
  };

  // A bucket's fragments as rho reads them: each fragment's mass, width
  // and density, in fragment order. An update derives the changed
  // bucket's shape once and shares it between the bucket's rho and both
  // merged-pair rhos. Only the first n entries are set: zero-filling the
  // rest compiles to a rep stos per shape, which measurably slows the
  // update step.
  struct Shape {
    int n = 0;
    double count[kMaxSubBuckets];
    double width[kMaxSubBuckets];
    double density[kMaxSubBuckets];
  };

  void FinishLoadingIfReady();
  std::size_t FindBucketIndex(double x) const;
  int SubIndexFor(const VBucket& b, std::int64_t value) const;

  // Collects the bucket's uniform fragments: one per sub-bucket, or a
  // single fragment for width <= 1 buckets (whose internal division is an
  // artifact of the cell-center rule and carries no information).
  int FragmentsOf(const VBucket& b, Fragment* out) const;

  Shape ShapeOf(const VBucket& b) const;
  double RhoOf(const VBucket& b, const Shape& shape) const;
  // Rho of the bucket [a.left, b.right) that merging a and b would make.
  double MergedRho(const VBucket& a, const Shape& sa, const VBucket& b,
                   const Shape& sb) const;

  // Recomputes rho_[index] and the merge-pair caches touching `index`;
  // RefreshCachesAround also repairs their tree slots.
  void RecomputeCachesAround(std::size_t index);
  void RefreshCachesAround(std::size_t index);
  void RebuildAllCaches();
  // Reloads the tree slots of buckets [first, last] and of every pair
  // touching them from the caches, and replays the matches above them.
  void RepairTrees(std::size_t first, std::size_t last);

  // Executes the split of bucket `s` and the merge of pair (m, m+1).
  void SplitAndMerge(std::size_t s, std::size_t m);
  // Merges pair (m, m+1) in the caches; the caller repairs the trees.
  void MergePair(std::size_t m);
  // Runs one split+merge if it strictly improves the objective; returns
  // whether it did. Weighted updates call it up to `count` times so a
  // coalesced group gets the same repartition opportunities as a
  // one-by-one replay.
  bool MaybeRepartition();
  void RepartitionUpTo(std::int64_t count);
  // Removes one point after loading: from the value's own counter, else
  // spiralling outward to the closest counter with mass (§7.3). The
  // per-point step DeleteN replays when a group does not fit its counter.
  void DeleteOne(std::int64_t value);

  // Fills `b.sub` with `total` spread equally (the paper's post-split
  // state: equal sub-counts, zero rho).
  void FillUniform(VBucket* b, double total) const;

  // Distributes the mass of `fragments` into the sub-buckets of `b` by
  // proportional overlap (the merged bucket's counters are "deduced from
  // the old configuration", Fig. 4).
  void ReBin(const Fragment* fragments, int n, VBucket* b) const;

  DynamicVOptConfig config_;

  bool loading_ = true;
  std::map<std::int64_t, double> loading_counts_;

  std::vector<VBucket> buckets_;
  std::vector<double> rho_;       // cached per-bucket deviation
  std::vector<double> pair_rho_;  // cached merged rho of pair (i, i+1)
  // Theorem 4.1's candidates: the splittable bucket with the largest rho
  // (unsplittable buckets are empty slots) and the pair with the smallest
  // merged rho.
  internal::TournamentTree<std::greater<double>> split_tree_;
  internal::TournamentTree<std::less<double>> merge_tree_;
  double total_ = 0.0;
  std::int64_t repartitions_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_DYNAMIC_VOPT_H_
