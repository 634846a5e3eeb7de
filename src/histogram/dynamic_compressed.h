// Dynamic Compressed (DC) histogram (§3).
//
// A DC histogram keeps n buckets, each storing its left border and point
// count; singleton ("singular") buckets hold individual high-frequency
// values (f > N/n) and the remaining "regular" buckets approximate an
// Equi-Depth partition. The Compressed partition constraint is relaxed
// between reorganizations: every insertion lands in its bucket by binary
// search, and a chi-square test on the regular bucket counts decides when
// the constraint is "significantly violated" and the borders must be
// recomputed (repartitioning). The significance threshold alpha_min
// controls how eagerly that happens; the paper found the algorithm
// insensitive to it as long as alpha_min << 1 and used 1e-6.
//
// An update that does not repartition costs O(log n) (the chi-square
// statistic over the regular counts is maintained incrementally); a
// repartition costs O(n + log(domain)). Repartitions are not rare, and
// they grow more frequent with N: the chi-square statistic of a fixed
// relative imbalance grows with N. Measured at 1 KiB (127 buckets) over
// GenerateClusterData's 200k points (seed 42), replayed in a cycle for
// 1M inserts, the share of inserts that repartitioned in each 100k-insert
// block was 64, 7, 13, 24, 13, 20, 25, 28, 25 and 77% in cluster order,
// and 38%, then 100% in every later block, in §7's random order
// (MakeRandomInsertStream, Rng 7).

#ifndef DYNHIST_HISTOGRAM_DYNAMIC_COMPRESSED_H_
#define DYNHIST_HISTOGRAM_DYNAMIC_COMPRESSED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/histogram/histogram.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Configuration of a DC histogram.
struct DynamicCompressedConfig {
  /// Number of buckets (n). Derive from memory via BucketBudget().
  std::int64_t buckets = 64;
  /// Chi-square significance threshold alpha_min (§3): repartition when the
  /// probability of the observed bucket-count deviation under the uniform
  /// null hypothesis drops to or below this value.
  double alpha_min = 1e-6;
};

/// Incrementally maintained Compressed(V,F) histogram.
class DynamicCompressedHistogram final : public Histogram {
 public:
  explicit DynamicCompressedHistogram(const DynamicCompressedConfig& config);

  void Insert(std::int64_t value) override;
  void Delete(std::int64_t value, std::int64_t live_copies_before) override;
  void InsertN(std::int64_t value, std::int64_t count) override;
  void DeleteN(std::int64_t value, std::int64_t count) override;
  HistogramModel Model() const override;
  double TotalCount() const override { return total_; }
  std::string Name() const override { return "DC"; }

  /// Number of repartitions performed so far (§7.1 attributes DC's errors
  /// to "unnecessary border relocations"; benches report this).
  std::int64_t RepartitionCount() const { return repartitions_; }

  /// Number of singular buckets currently held.
  std::int64_t SingularCount() const;

  /// True while the histogram is still collecting its first n distinct
  /// points (the loading phase stores them exactly).
  bool InLoadingPhase() const { return loading_; }

 private:
  struct Bucket {
    double left = 0.0;    // left border; right border = next bucket's left
    double count = 0.0;   // points currently in the bucket
    bool singular = false;
  };

  void FinishLoadingIfReady();
  std::size_t FindBucket(std::int64_t value) const;
  // The closest bucket to `value` that still holds a whole point of mass
  // (§7.3 deletion spill target), found by walking outward from the
  // value's bucket — O(distance to the target), not O(buckets). Falls back
  // to the fullest bucket when no bucket holds a whole point.
  std::size_t NearestBucketWithWholePoint(std::size_t index,
                                          std::int64_t value) const;
  // Removes one point after loading, from the value's bucket or, once that
  // holds less than a point, its nearest bucket with one (§7.3). The
  // per-point step DeleteN replays when a group does not fit the bucket.
  void DeleteOne(std::int64_t value);
  void AddToBucket(std::size_t index, double delta);
  bool ChiSquareTriggered() const;
  void Repartition();
  void RebuildChiSquareAccumulators();

  DynamicCompressedConfig config_;

  bool loading_ = true;
  std::map<std::int64_t, double> loading_counts_;  // exact, first n distinct

  std::vector<Bucket> buckets_;
  double right_edge_ = 0.0;  // right border of the last bucket
  double total_ = 0.0;       // N

  // Incremental chi-square state over regular buckets: sum and sum of
  // squares of regular bucket counts, and the regular bucket count.
  double reg_sum_ = 0.0;
  double reg_sum_sq_ = 0.0;
  std::int64_t reg_buckets_ = 0;

  std::int64_t repartitions_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_DYNAMIC_COMPRESSED_H_
