// Approximate Compressed (AC) histogram — the competing incremental
// technique of Gibbons, Matias & Poosala [10], §2, used as the paper's main
// baseline.
//
// AC keeps a small approximate Compressed histogram in memory and a large
// backing sample (ReservoirSample) "on disk" — by default twenty times the
// main-memory budget (§7). Inserts and deletes update the containing
// bucket's count, and the histogram "is recomputed at any modification of
// the reservoir sample" (§7.2), the paper's gamma = -1 setting. [10]'s lazy
// variant (gamma > -1) is not implemented because the paper does not run it.

#ifndef DYNHIST_HISTOGRAM_APPROXIMATE_COMPRESSED_H_
#define DYNHIST_HISTOGRAM_APPROXIMATE_COMPRESSED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/histogram/histogram.h"
#include "src/histogram/model.h"
#include "src/sampling/reservoir.h"

namespace dynhist {

/// Configuration of an AC histogram.
struct ApproximateCompressedConfig {
  /// In-memory bucket budget B (derive via BucketBudget()).
  std::int64_t buckets = 64;
  /// Backing-sample capacity in values. The paper's default gives the
  /// sample disk_factor x the histogram's memory: capacity =
  /// disk_factor * memory_bytes / kBytesPerWord.
  std::size_t sample_capacity = 5120;
  std::uint64_t seed = 0;
};

/// Helper: the paper's AC sizing — histogram memory plus a backing sample
/// `disk_factor` times larger (20x/40x/60x in Fig. 14).
ApproximateCompressedConfig MakeApproximateCompressedConfig(
    double memory_bytes, double disk_factor, std::uint64_t seed);

/// Incrementally maintained Approximate Compressed histogram [10].
class ApproximateCompressedHistogram final : public Histogram {
 public:
  explicit ApproximateCompressedHistogram(
      const ApproximateCompressedConfig& config);

  void Insert(std::int64_t value) override;
  void Delete(std::int64_t value, std::int64_t live_copies_before) override;
  HistogramModel Model() const override;
  double TotalCount() const override { return total_; }
  std::string Name() const override { return "AC"; }

  /// Number of full recomputations from the backing sample.
  std::int64_t RecomputeCount() const { return recomputes_; }

  /// Current backing-sample occupancy (shrinks under deletions, Fig. 17).
  std::size_t SampleSize() const { return sample_.Size(); }

 private:
  struct Bucket {
    double left = 0.0;
    double right = 0.0;
    double count = 0.0;
    bool singular = false;
  };

  std::size_t FindBucket(std::int64_t value) const;
  void RecomputeFromSample();

  ApproximateCompressedConfig config_;
  ReservoirSample sample_;
  std::vector<Bucket> buckets_;
  double total_ = 0.0;
  std::int64_t recomputes_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_APPROXIMATE_COMPRESSED_H_
