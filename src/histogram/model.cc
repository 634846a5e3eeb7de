#include "src/histogram/model.h"

#include <algorithm>

#include "src/common/check.h"

namespace dynhist {

HistogramModel::HistogramModel(std::vector<Piece> pieces,
                               std::vector<BucketRef> buckets)
    : pieces_(std::move(pieces)), buckets_(std::move(buckets)) {
  prefix_mass_.resize(pieces_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& p = pieces_[i];
    DH_CHECK(p.right > p.left);
    DH_CHECK(p.count >= 0.0);
    if (i > 0) DH_CHECK(p.left >= pieces_[i - 1].right - 1e-9);
    prefix_mass_[i] = acc;
    acc += p.count;
  }
  total_ = acc;
  // Buckets must tile the piece list exactly, in order.
  std::uint32_t next = 0;
  for (const BucketRef& b : buckets_) {
    DH_CHECK(b.first_piece == next);
    DH_CHECK(b.num_pieces >= 1);
    next += b.num_pieces;
  }
  DH_CHECK(next == pieces_.size());
}

HistogramModel HistogramModel::FromSimpleBuckets(std::vector<Piece> pieces) {
  std::vector<BucketRef> buckets(pieces.size());
  for (std::uint32_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = {i, 1, false};
  }
  return HistogramModel(std::move(pieces), std::move(buckets));
}

double HistogramModel::CdfMass(double x) const {
  if (pieces_.empty()) return 0.0;
  // First piece whose right border exceeds x contains (or follows) x.
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), x,
      [](double v, const Piece& p) { return v < p.right; });
  if (it == pieces_.end()) return total_;
  const auto i = static_cast<std::size_t>(it - pieces_.begin());
  const Piece& p = *it;
  if (x <= p.left) return prefix_mass_[i];
  return prefix_mass_[i] + p.count * (x - p.left) / p.Width();
}

double HistogramModel::MassInRealRange(double lo, double hi) const {
  DH_CHECK(lo <= hi);
  return CdfMass(hi) - CdfMass(lo);
}

double HistogramModel::EstimateRange(std::int64_t lo, std::int64_t hi) const {
  if (hi < lo) return 0.0;
  // Integer value v occupies [v, v+1), so [lo, hi] covers [lo, hi+1).
  return MassInRealRange(static_cast<double>(lo),
                         static_cast<double>(hi) + 1.0);
}

double HistogramModel::MinBorder() const {
  DH_CHECK(!pieces_.empty());
  return pieces_.front().left;
}

double HistogramModel::MaxBorder() const {
  DH_CHECK(!pieces_.empty());
  return pieces_.back().right;
}

std::vector<HistogramModel::Piece> HistogramModel::BucketPieces(
    std::size_t b) const {
  DH_CHECK(b < buckets_.size());
  const BucketRef& ref = buckets_[b];
  return {pieces_.begin() + ref.first_piece,
          pieces_.begin() + ref.first_piece + ref.num_pieces};
}

double HistogramModel::BucketCount(std::size_t b) const {
  DH_CHECK(b < buckets_.size());
  const BucketRef& ref = buckets_[b];
  double sum = 0.0;
  for (std::uint32_t i = 0; i < ref.num_pieces; ++i) {
    sum += pieces_[ref.first_piece + i].count;
  }
  return sum;
}

}  // namespace dynhist
