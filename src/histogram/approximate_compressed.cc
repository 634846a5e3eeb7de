#include "src/histogram/approximate_compressed.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/histogram/budget.h"
#include "src/histogram/static_compressed.h"

namespace dynhist {

ApproximateCompressedConfig MakeApproximateCompressedConfig(
    double memory_bytes, double disk_factor, std::uint64_t seed) {
  ApproximateCompressedConfig config;
  config.buckets = BucketBudget(memory_bytes, BucketLayout::kBorderCount);
  config.sample_capacity = static_cast<std::size_t>(std::max(
      1.0, disk_factor * memory_bytes / static_cast<double>(kBytesPerWord)));
  config.seed = seed;
  return config;
}

ApproximateCompressedHistogram::ApproximateCompressedHistogram(
    const ApproximateCompressedConfig& config)
    : config_(config), sample_(config.sample_capacity, config.seed) {
  DH_CHECK(config.buckets >= 2);
}

std::size_t ApproximateCompressedHistogram::FindBucket(
    std::int64_t value) const {
  DH_DCHECK(!buckets_.empty());
  const double x = static_cast<double>(value);
  const auto it = std::upper_bound(
      buckets_.begin(), buckets_.end(), x,
      [](double v, const Bucket& b) { return v < b.left; });
  if (it == buckets_.begin()) return 0;
  return static_cast<std::size_t>(it - buckets_.begin()) - 1;
}

void ApproximateCompressedHistogram::RecomputeFromSample() {
  ++recomputes_;
  buckets_.clear();
  if (sample_.Size() == 0 || total_ <= 0.0) return;
  // Build an exact Compressed histogram *of the sample* and scale its
  // counts to the relation size.
  const HistogramModel model =
      BuildCompressed(sample_.Entries(), config_.buckets);
  const double scale = total_ / static_cast<double>(sample_.Size());
  buckets_.reserve(model.NumBuckets());
  for (std::size_t b = 0; b < model.NumBuckets(); ++b) {
    const auto pieces = model.BucketPieces(b);
    DH_CHECK(pieces.size() == 1);
    buckets_.push_back({pieces[0].left, pieces[0].right,
                        pieces[0].count * scale,
                        model.buckets()[b].singular});
  }
}

void ApproximateCompressedHistogram::Insert(std::int64_t value) {
  total_ += 1.0;
  const bool sample_changed = sample_.Insert(value);
  if (buckets_.empty()) {
    RecomputeFromSample();
    return;
  }
  // Track the insert in the in-memory histogram.
  const double x = static_cast<double>(value);
  std::size_t index;
  if (x < buckets_.front().left) {
    buckets_.front().left = x;
    buckets_.front().singular = false;
    index = 0;
  } else if (x + 1.0 > buckets_.back().right) {
    buckets_.back().right = x + 1.0;
    buckets_.back().singular = false;
    index = buckets_.size() - 1;
  } else {
    index = FindBucket(value);
  }
  buckets_[index].count += 1.0;
  // "Recomputed at any modification of the reservoir sample" (§7.2).
  if (sample_changed) RecomputeFromSample();
}

void ApproximateCompressedHistogram::Delete(std::int64_t value,
                                            std::int64_t live_copies_before) {
  total_ -= 1.0;
  const bool sample_changed = sample_.Delete(value, live_copies_before);
  if (buckets_.empty()) return;
  const std::size_t index = FindBucket(value);
  buckets_[index].count = std::max(0.0, buckets_[index].count - 1.0);
  if (sample_changed) RecomputeFromSample();
}

HistogramModel ApproximateCompressedHistogram::Model() const {
  std::vector<HistogramModel::Piece> pieces;
  std::vector<HistogramModel::BucketRef> refs;
  pieces.reserve(buckets_.size());
  refs.reserve(buckets_.size());
  for (const Bucket& b : buckets_) {
    if (b.right <= b.left) continue;
    refs.push_back(
        {static_cast<std::uint32_t>(pieces.size()), 1, b.singular});
    pieces.push_back({b.left, b.right, b.count});
  }
  return HistogramModel(std::move(pieces), std::move(refs));
}

}  // namespace dynhist
