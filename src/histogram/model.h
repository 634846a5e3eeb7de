// Immutable piecewise-uniform histogram snapshot.
//
// Every histogram in dynhist — static or dynamic — can export its current
// state as a HistogramModel: an ordered list of non-overlapping *pieces*
// (value intervals of uniform density) grouped into *buckets*. The model
// embodies the two estimation assumptions of §2.1: within each piece,
// points are spread uniformly over the value range (uniform distribution
// assumption) and every value in the range is assumed present (continuous
// value assumption). Metrics (KS statistic, §6.2) and the selectivity
// estimation API evaluate against this snapshot.
//
// Conventions: integer attribute value v occupies the real interval
// [v, v+1), so a singleton bucket for v is the piece [v, v+1). A bucket's
// right border equals the next bucket's left border in all paper
// constructions, but the model also tolerates gaps (zero-density ranges),
// which arise in distributed superpositions of sites with disjoint ranges.

#ifndef DYNHIST_HISTOGRAM_MODEL_H_
#define DYNHIST_HISTOGRAM_MODEL_H_

#include <cstdint>
#include <vector>

namespace dynhist {

/// An immutable piecewise-uniform approximation of a data distribution.
class HistogramModel {
 public:
  /// One uniform-density piece: `count` points spread evenly on
  /// [left, right). Requires right > left and count >= 0.
  struct Piece {
    double left = 0.0;
    double right = 0.0;
    double count = 0.0;

    double Width() const { return right - left; }
    double Density() const { return count / (right - left); }

    friend bool operator==(const Piece&, const Piece&) = default;
  };

  /// Structural grouping of consecutive pieces into one histogram bucket.
  /// `singular` marks Compressed-histogram singleton buckets (§3).
  struct BucketRef {
    std::uint32_t first_piece = 0;
    std::uint32_t num_pieces = 0;
    bool singular = false;

    friend bool operator==(const BucketRef&, const BucketRef&) = default;
  };

  /// An empty model (zero mass everywhere).
  HistogramModel() = default;

  /// Builds a model from pieces and their grouping into buckets.
  /// Pieces must be sorted by `left`, non-overlapping, each with positive
  /// width and non-negative count; `buckets` must tile `pieces` exactly.
  HistogramModel(std::vector<Piece> pieces, std::vector<BucketRef> buckets);

  /// Convenience: one single-piece bucket per element of `pieces`.
  static HistogramModel FromSimpleBuckets(std::vector<Piece> pieces);

  /// Total mass (approximated number of data points).
  double TotalCount() const { return total_; }

  std::size_t NumBuckets() const { return buckets_.size(); }
  std::size_t NumPieces() const { return pieces_.size(); }
  bool Empty() const { return pieces_.empty(); }

  /// Mass strictly to the left of x, i.e. in (-inf, x). O(log pieces).
  double CdfMass(double x) const;

  /// Mass in the real interval [lo, hi). Requires lo <= hi.
  double MassInRealRange(double lo, double hi) const;

  /// Estimated number of points with integer value in [lo, hi] inclusive —
  /// the selectivity of the range predicate lo <= A <= hi.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const;

  /// Estimated number of points with value exactly v.
  double EstimatePoint(std::int64_t v) const {
    return EstimateRange(v, v);
  }

  /// Leftmost / rightmost border covered by any piece. Require !Empty().
  double MinBorder() const;
  double MaxBorder() const;

  const std::vector<Piece>& pieces() const { return pieces_; }
  const std::vector<BucketRef>& buckets() const { return buckets_; }

  /// Pieces belonging to bucket b.
  std::vector<Piece> BucketPieces(std::size_t b) const;

  /// Total count in bucket b.
  double BucketCount(std::size_t b) const;

 private:
  std::vector<Piece> pieces_;
  std::vector<BucketRef> buckets_;
  std::vector<double> prefix_mass_;  // mass strictly left of pieces_[i].left
  double total_ = 0.0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_MODEL_H_
