#include "src/histogram/dynamic_vopt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dynhist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Dev(DeviationPolicy policy, double width, double density,
           double avg) {
  const double d = density - avg;
  return policy == DeviationPolicy::kSquared ? width * d * d
                                             : width * std::fabs(d);
}

}  // namespace

DynamicVOptHistogram::DynamicVOptHistogram(const DynamicVOptConfig& config)
    : config_(config) {
  DH_CHECK(config.buckets >= 2);
  DH_CHECK(config.sub_buckets >= 2 && config.sub_buckets <= kMaxSubBuckets);
}

int DynamicVOptHistogram::SubIndexFor(const VBucket& b,
                                      std::int64_t value) const {
  // The integer value occupies the cell [value, value+1); its center decides
  // the sub-bucket.
  const double center = static_cast<double>(value) + 0.5;
  const int k = config_.sub_buckets;
  const double w = b.Width();
  DH_DCHECK(w > 0.0);
  int h = static_cast<int>((center - b.left) / w * static_cast<double>(k));
  return std::clamp(h, 0, k - 1);
}

int DynamicVOptHistogram::FragmentsOf(const VBucket& b, Fragment* out) const {
  const int k = config_.sub_buckets;
  const double w = b.Width();
  if (w <= 1.0) {
    out[0] = {b.left, b.right, b.Total(k)};
    return 1;
  }
  const double step = w / static_cast<double>(k);
  for (int h = 0; h < k; ++h) {
    out[h] = {b.left + step * static_cast<double>(h),
              b.left + step * static_cast<double>(h + 1),
              b.sub[static_cast<std::size_t>(h)]};
  }
  out[k - 1].right = b.right;  // avoid rounding drift at the far edge
  return k;
}

DynamicVOptHistogram::Shape DynamicVOptHistogram::ShapeOf(
    const VBucket& b) const {
  Fragment frags[kMaxSubBuckets];
  Shape shape;
  shape.n = FragmentsOf(b, frags);
  for (int i = 0; i < shape.n; ++i) {
    shape.count[i] = frags[i].count;
    shape.width[i] = frags[i].right - frags[i].left;
    shape.density[i] = shape.count[i] / shape.width[i];
  }
  return shape;
}

double DynamicVOptHistogram::RhoOf(const VBucket& b,
                                   const Shape& shape) const {
  if (shape.n <= 1) return 0.0;
  const double w = b.Width();
  const double avg = b.Total(config_.sub_buckets) / w;
  double rho = 0.0;
  for (int i = 0; i < shape.n; ++i) {
    rho += Dev(config_.policy, shape.width[i], shape.density[i], avg);
  }
  return rho;
}

double DynamicVOptHistogram::MergedRho(const VBucket& a, const Shape& sa,
                                       const VBucket& b,
                                       const Shape& sb) const {
  const double w = b.right - a.left;
  double total = 0.0;
  for (int i = 0; i < sa.n; ++i) total += sa.count[i];
  for (int i = 0; i < sb.n; ++i) total += sb.count[i];
  const double avg = total / w;
  double rho = 0.0;
  for (int i = 0; i < sa.n; ++i) {
    rho += Dev(config_.policy, sa.width[i], sa.density[i], avg);
  }
  for (int i = 0; i < sb.n; ++i) {
    rho += Dev(config_.policy, sb.width[i], sb.density[i], avg);
  }
  return rho;
}

void DynamicVOptHistogram::FillUniform(VBucket* b, double total) const {
  const int k = config_.sub_buckets;
  for (int h = 0; h < k; ++h) {
    b->sub[static_cast<std::size_t>(h)] = total / static_cast<double>(k);
  }
  for (int h = k; h < kMaxSubBuckets; ++h) {
    b->sub[static_cast<std::size_t>(h)] = 0.0;
  }
}

void DynamicVOptHistogram::ReBin(const Fragment* fragments, int n,
                                 VBucket* b) const {
  const int k = config_.sub_buckets;
  const double w = b->Width();
  const double step = w / static_cast<double>(k);
  for (int h = 0; h < kMaxSubBuckets; ++h) {
    b->sub[static_cast<std::size_t>(h)] = 0.0;
  }
  for (int i = 0; i < n; ++i) {
    const Fragment& f = fragments[i];
    const double fw = f.right - f.left;
    if (fw <= 0.0 || f.count == 0.0) continue;
    for (int h = 0; h < k; ++h) {
      const double lo =
          std::max(f.left, b->left + step * static_cast<double>(h));
      const double hi = std::min(
          f.right, h + 1 == k ? b->right
                              : b->left + step * static_cast<double>(h + 1));
      if (hi > lo) {
        b->sub[static_cast<std::size_t>(h)] += f.count * (hi - lo) / fw;
      }
    }
  }
}

void DynamicVOptHistogram::FinishLoadingIfReady() {
  if (static_cast<std::int64_t>(loading_counts_.size()) < config_.buckets) {
    return;
  }
  buckets_.clear();
  buckets_.reserve(loading_counts_.size());
  // "Read first n points and create buckets between them."
  for (const auto& [value, count] : loading_counts_) {
    VBucket b;
    b.left = static_cast<double>(value);
    buckets_.push_back(b);
  }
  for (std::size_t i = 0; i + 1 < buckets_.size(); ++i) {
    buckets_[i].right = buckets_[i + 1].left;
  }
  buckets_.back().right = buckets_.back().left + 1.0;
  std::size_t i = 0;
  for (const auto& [value, count] : loading_counts_) {
    VBucket& b = buckets_[i++];
    const int h = SubIndexFor(b, value);
    b.sub[static_cast<std::size_t>(h)] += count;
  }
  loading_counts_.clear();
  loading_ = false;
  RebuildAllCaches();
}

std::size_t DynamicVOptHistogram::FindBucketIndex(double x) const {
  DH_DCHECK(!buckets_.empty());
  // The last bucket whose left border is not above x, or 0 when x lies
  // left of them all: upper_bound's position minus one. The halving search
  // keeps the answer in [base, base + n); its loop length depends on the
  // bucket count alone and the comparison selects with a conditional move,
  // so a lookup takes no data-dependent branch.
  const VBucket* base = buckets_.data();
  for (std::size_t n = buckets_.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = x < base[half].left ? base : base + half;
    n -= half;
  }
  return static_cast<std::size_t>(base - buckets_.data());
}

void DynamicVOptHistogram::RebuildAllCaches() {
  rho_.resize(buckets_.size());
  pair_rho_.assign(buckets_.size() > 0 ? buckets_.size() - 1 : 0, kInf);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Shape shape = ShapeOf(buckets_[i]);
    rho_[i] = RhoOf(buckets_[i], shape);
    if (i + 1 < buckets_.size()) {
      pair_rho_[i] = MergedRho(buckets_[i], shape, buckets_[i + 1],
                               ShapeOf(buckets_[i + 1]));
    }
  }
  // The bucket count is n from here on: every borrowed bucket is paid back
  // and every split funded by a merge.
  split_tree_.Reset(buckets_.size());
  merge_tree_.Reset(pair_rho_.size());
  RepairTrees(0, buckets_.size() - 1);
}

void DynamicVOptHistogram::RecomputeCachesAround(std::size_t index) {
  const VBucket& b = buckets_[index];
  const Shape shape = ShapeOf(b);
  rho_[index] = RhoOf(b, shape);
  if (index > 0) {
    const VBucket& prev = buckets_[index - 1];
    pair_rho_[index - 1] = MergedRho(prev, ShapeOf(prev), b, shape);
  }
  if (index + 1 < buckets_.size()) {
    const VBucket& next = buckets_[index + 1];
    pair_rho_[index] = MergedRho(b, shape, next, ShapeOf(next));
  }
}

void DynamicVOptHistogram::RefreshCachesAround(std::size_t index) {
  RecomputeCachesAround(index);
  RepairTrees(index, index);
}

void DynamicVOptHistogram::RepairTrees(std::size_t first, std::size_t last) {
  for (std::size_t i = first; i <= last; ++i) {
    if (buckets_[i].Width() >= kMinSplitWidth) {
      split_tree_.Set(i, rho_[i]);
    } else {
      split_tree_.Clear(i);
    }
  }
  split_tree_.Repair(first, last);
  const std::size_t pair_first = first > 0 ? first - 1 : 0;
  const std::size_t pair_last = std::min(last, pair_rho_.size() - 1);
  for (std::size_t i = pair_first; i <= pair_last; ++i) {
    merge_tree_.Set(i, pair_rho_[i]);
  }
  merge_tree_.Repair(pair_first, pair_last);
}

void DynamicVOptHistogram::MergePair(std::size_t m) {
  DH_DCHECK(m + 1 < buckets_.size());
  VBucket& a = buckets_[m];
  const VBucket& b = buckets_[m + 1];
  Fragment frags[2 * kMaxSubBuckets];
  const int na = FragmentsOf(a, frags);
  const int nb = FragmentsOf(b, frags + na);
  VBucket merged;
  merged.left = a.left;
  merged.right = b.right;
  ReBin(frags, na + nb, &merged);
  a = merged;
  buckets_.erase(buckets_.begin() + static_cast<std::ptrdiff_t>(m) + 1);
  rho_.erase(rho_.begin() + static_cast<std::ptrdiff_t>(m) + 1);
  pair_rho_.erase(pair_rho_.begin() + static_cast<std::ptrdiff_t>(m));
  RecomputeCachesAround(m);
}

void DynamicVOptHistogram::SplitAndMerge(std::size_t s, std::size_t m) {
  DH_DCHECK(m != s && m + 1 != s);
  // Buckets [first, last] change or shift by one position; the rest keep
  // theirs, so only their tree slots need repair.
  const std::size_t first = std::min(s, m);
  const std::size_t last = std::max(s, m + 1);
  // Merge first (indices of the split target shift down when the merged
  // pair precedes it).
  MergePair(m);
  if (m < s) --s;

  // Split bucket s along the sub-bucket border that best balances the mass;
  // both halves get equal sub-counts (rho = 0). The border snaps to an
  // integer attribute position: all borders are created integral (loading
  // uses data values, merges reuse existing borders), so repeated splits
  // drive hot cells down to true width-1 singleton buckets instead of
  // trapping them in fractional-width buckets that are too narrow to split
  // again (§7.1: DADO "can afford to create buckets with only one value").
  VBucket& old = buckets_[s];
  const int k = config_.sub_buckets;
  const double w = old.Width();
  DH_DCHECK(w >= kMinSplitWidth);
  int best_j = 1;
  double best_imbalance = kInf;
  double prefix = 0.0;
  const double total = old.Total(k);
  for (int j = 1; j < k; ++j) {
    prefix += old.sub[static_cast<std::size_t>(j - 1)];
    const double imbalance = std::fabs(2.0 * prefix - total);
    if (imbalance < best_imbalance) {
      best_imbalance = imbalance;
      best_j = j;
    }
  }
  const double raw_border =
      old.left + w * static_cast<double>(best_j) / static_cast<double>(k);
  const double snap_lo = std::ceil(old.left + 1.0);
  const double snap_hi = std::floor(old.right - 1.0);
  // snap_lo > snap_hi can only happen for legacy fractional borders; fall
  // back to the exact sub-border in that case.
  const double border = snap_lo <= snap_hi
                            ? std::clamp(std::round(raw_border), snap_lo,
                                         snap_hi)
                            : raw_border;
  // Mass on each side of the snapped border, by proportional overlap with
  // the bucket's fragments.
  Fragment old_frags[kMaxSubBuckets];
  const int n_frags = FragmentsOf(old, old_frags);
  double left_mass = 0.0;
  for (int f = 0; f < n_frags; ++f) {
    const double lo = old_frags[f].left;
    const double hi = std::min(old_frags[f].right, border);
    if (hi > lo) {
      left_mass += old_frags[f].count * (hi - lo) /
                   (old_frags[f].right - old_frags[f].left);
    }
  }
  // The overlap sum can exceed `total` by an ulp when the border lands at
  // the far edge of the mass; the residue `total - left_mass` must never go
  // negative (Model() requires non-negative piece counts).
  left_mass = std::clamp(left_mass, 0.0, total);
  VBucket lo, hi;
  lo.left = old.left;
  lo.right = border;
  FillUniform(&lo, left_mass);
  hi.left = border;
  hi.right = old.right;
  FillUniform(&hi, total - left_mass);
  old = lo;
  buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(s) + 1, hi);
  rho_.insert(rho_.begin() + static_cast<std::ptrdiff_t>(s) + 1, 0.0);
  pair_rho_.insert(pair_rho_.begin() + static_cast<std::ptrdiff_t>(s), kInf);
  RecomputeCachesAround(s);
  RecomputeCachesAround(s + 1);
  RepairTrees(first, last);
  ++repartitions_;
}

bool DynamicVOptHistogram::MaybeRepartition() {
  if (buckets_.size() < 3) return false;
  // Theorem 4.1: the best split candidate is the bucket with the largest
  // rho (among splittable buckets), and the best merge candidate is the
  // adjacent pair with the smallest merged rho.
  const auto split = split_tree_.Winner();
  if (split.empty() || split.key <= 0.0) return false;
  const std::size_t s = split.index;

  // Best merge pair that does not involve the split bucket, i.e. neither
  // pair s-1 nor pair s (the split and the merge must operate on disjoint
  // buckets to be executable).
  const auto merge = merge_tree_.WinnerOutside(s > 0 ? s - 1 : 0, s + 1);
  if (merge.empty() || merge.key == kInf) return false;

  // Execute only if the swap strictly improves the objective
  // (min delta-rho = rho_M - rho_S < 0).
  if (split.key <= merge.key) return false;
  SplitAndMerge(s, merge.index);
  return true;
}

void DynamicVOptHistogram::RepartitionUpTo(std::int64_t count) {
  for (std::int64_t i = 0; i < count && MaybeRepartition(); ++i) {
  }
}

void DynamicVOptHistogram::Insert(std::int64_t value) {
  InsertN(value, 1);
}

void DynamicVOptHistogram::InsertN(std::int64_t value, std::int64_t count) {
  if (count <= 0) return;
  const auto weight = static_cast<double>(count);
  if (loading_) {
    loading_counts_[value] += weight;
    total_ += weight;
    FinishLoadingIfReady();
    return;
  }
  total_ += weight;
  const double x = static_cast<double>(value);
  if (x < buckets_.front().left || x >= buckets_.back().right) {
    // "Create a new bucket just for this point" — it borrows a bucket that
    // is immediately paid back by merging the globally best pair. A
    // weighted group lands in the new bucket whole. The merge tree still
    // holds the pairs from before the borrow, so the best pair is its
    // winner or the new pair, ties to the lower index.
    const auto old_best = merge_tree_.Winner();
    DH_DCHECK(!old_best.empty());
    VBucket nb;
    if (x < buckets_.front().left) {
      nb.left = x;
      nb.right = buckets_.front().left;
      nb.sub[static_cast<std::size_t>(SubIndexFor(nb, value))] = weight;
      buckets_.insert(buckets_.begin(), nb);
      rho_.insert(rho_.begin(), 0.0);
      pair_rho_.insert(pair_rho_.begin(), kInf);
      RecomputeCachesAround(0);
      // Old pair i is now pair i+1.
      const std::size_t m =
          old_best.key < pair_rho_[0] ? old_best.index + 1 : 0;
      MergePair(m);
      RepairTrees(0, m);
    } else {
      nb.left = buckets_.back().right;
      nb.right = x + 1.0;
      nb.sub[static_cast<std::size_t>(SubIndexFor(nb, value))] = weight;
      buckets_.push_back(nb);
      rho_.push_back(0.0);
      pair_rho_.push_back(kInf);
      RecomputeCachesAround(buckets_.size() - 1);
      const std::size_t new_pair = pair_rho_.size() - 1;
      const std::size_t m =
          pair_rho_[new_pair] < old_best.key ? new_pair : old_best.index;
      MergePair(m);
      RepairTrees(m, buckets_.size() - 1);
    }
    return;
  }
  const std::size_t index = FindBucketIndex(x);
  VBucket& b = buckets_[index];
  b.sub[static_cast<std::size_t>(SubIndexFor(b, value))] += weight;
  RefreshCachesAround(index);
  RepartitionUpTo(count);
}

void DynamicVOptHistogram::DeleteN(std::int64_t value, std::int64_t count) {
  if (count <= 0) return;
  const auto weight = static_cast<double>(count);
  if (loading_) {
    auto it = loading_counts_.find(value);
    DH_CHECK(it != loading_counts_.end() && it->second >= weight);
    it->second -= weight;
    total_ -= weight;
    if (it->second == 0.0) loading_counts_.erase(it);
    return;
  }
  const double x = static_cast<double>(value);
  const std::size_t index = FindBucketIndex(std::clamp(
      x, buckets_.front().left, buckets_.back().right - 1e-9));
  VBucket& b = buckets_[index];
  double& c = b.sub[static_cast<std::size_t>(SubIndexFor(b, value))];
  if (c >= weight) {
    // The whole group comes out of the value's own counter: one weighted
    // step, one repartition check.
    c -= weight;
    total_ -= weight;
    RefreshCachesAround(index);
    RepartitionUpTo(count);
    return;
  }
  // Some of the group must spill to other counters; replay per point so
  // each deletion spirals outward from its own counter (§7.3).
  for (std::int64_t i = 0; i < count; ++i) Delete(value, 1);
}

void DynamicVOptHistogram::Delete(std::int64_t value,
                                  std::int64_t /*live_copies_before*/) {
  if (loading_) {
    auto it = loading_counts_.find(value);
    DH_CHECK(it != loading_counts_.end() && it->second > 0.0);
    it->second -= 1.0;
    total_ -= 1.0;
    if (it->second == 0.0) loading_counts_.erase(it);
    return;
  }
  const double x = static_cast<double>(value);
  const std::size_t index = FindBucketIndex(std::clamp(
      x, buckets_.front().left, buckets_.back().right - 1e-9));
  const int k = config_.sub_buckets;

  // Try the counter the value falls in, then the other counters of the same
  // bucket, then spiral outward to the closest bucket with mass (§7.3).
  const auto try_bucket = [&](std::size_t i) -> bool {
    VBucket& b = buckets_[i];
    const int preferred =
        i == index ? SubIndexFor(b, value)
                   : (i < index ? k - 1 : 0);  // counter nearest the value
    for (int offset = 0; offset < k; ++offset) {
      for (const int sign : {-1, +1}) {
        const int h = preferred + sign * offset;
        if (h < 0 || h >= k) continue;
        double& c = b.sub[static_cast<std::size_t>(h)];
        if (c >= 1.0) {
          c -= 1.0;
          total_ -= 1.0;
          RefreshCachesAround(i);
          return true;
        }
        if (offset == 0) break;  // same counter for both signs
      }
    }
    return false;
  };

  for (std::size_t radius = 0; radius < buckets_.size(); ++radius) {
    const bool has_low = index >= radius;
    const bool has_high = index + radius < buckets_.size();
    if (!has_low && !has_high) break;
    if (has_low && try_bucket(index - radius)) {
      MaybeRepartition();
      return;
    }
    if (radius > 0 && has_high && try_bucket(index + radius)) {
      MaybeRepartition();
      return;
    }
  }
  // No counter holds a whole point (heavily clamped history): take the
  // fractional remainder from the largest counter.
  double* largest = nullptr;
  std::size_t largest_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    for (int h = 0; h < k; ++h) {
      double& c = buckets_[i].sub[static_cast<std::size_t>(h)];
      if (largest == nullptr || c > *largest) {
        largest = &c;
        largest_bucket = i;
      }
    }
  }
  if (largest != nullptr && *largest > 0.0) {
    total_ -= *largest;
    *largest = 0.0;
    RefreshCachesAround(largest_bucket);
    MaybeRepartition();
  }
}

HistogramModel DynamicVOptHistogram::Model() const {
  std::vector<HistogramModel::Piece> pieces;
  std::vector<HistogramModel::BucketRef> refs;
  if (loading_) {
    pieces.reserve(loading_counts_.size());
    refs.reserve(loading_counts_.size());
    for (const auto& [value, count] : loading_counts_) {
      refs.push_back({static_cast<std::uint32_t>(pieces.size()), 1, true});
      pieces.push_back({static_cast<double>(value),
                        static_cast<double>(value) + 1.0, count});
    }
    return HistogramModel(std::move(pieces), std::move(refs));
  }
  // A bucket exports sub_buckets fragments, or one when it is a cell wide.
  pieces.reserve(buckets_.size() *
                 static_cast<std::size_t>(config_.sub_buckets));
  refs.reserve(buckets_.size());
  Fragment frags[kMaxSubBuckets];
  for (const VBucket& b : buckets_) {
    const int n = FragmentsOf(b, frags);
    refs.push_back({static_cast<std::uint32_t>(pieces.size()),
                    static_cast<std::uint32_t>(n), false});
    for (int i = 0; i < n; ++i) {
      pieces.push_back({frags[i].left, frags[i].right, frags[i].count});
    }
  }
  return HistogramModel(std::move(pieces), std::move(refs));
}

}  // namespace dynhist
