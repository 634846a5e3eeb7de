#include "src/histogram/dynamic_compressed.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/math.h"

namespace dynhist {

namespace {

// Piecewise-uniform cumulative mass over a run of buckets; used to invert
// quantiles when respecifying borders during repartition.
class PiecewiseCdf {
 public:
  struct Piece {
    double left, right, count;
  };

  explicit PiecewiseCdf(std::vector<Piece> pieces)
      : pieces_(std::move(pieces)), prefix_(pieces_.size() + 1, 0.0) {
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + pieces_[i].count;
    }
  }

  double TotalMass() const { return prefix_.back(); }

  // Mass strictly left of x.
  double CumAt(double x) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
      const Piece& p = pieces_[i];
      if (x >= p.right) {
        acc += p.count;
      } else if (x > p.left) {
        acc += p.count * (x - p.left) / (p.right - p.left);
        break;
      } else {
        break;
      }
    }
    return acc;
  }

  // Smallest x with CumAt(x) >= target (piecewise-linear inversion).
  double Invert(double target) const {
    const auto it = std::lower_bound(prefix_.begin() + 1, prefix_.end(),
                                     target);
    const auto i = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    if (i >= pieces_.size()) return pieces_.back().right;
    const Piece& p = pieces_[i];
    if (p.count <= 0.0) return p.left;
    const double need = target - prefix_[i];
    return p.left + (need / p.count) * (p.right - p.left);
  }

 private:
  std::vector<Piece> pieces_;
  std::vector<double> prefix_;
};

}  // namespace

DynamicCompressedHistogram::DynamicCompressedHistogram(
    const DynamicCompressedConfig& config)
    : config_(config) {
  DH_CHECK(config.buckets >= 2);
  DH_CHECK(config.alpha_min >= 0.0 && config.alpha_min <= 1.0);
}

void DynamicCompressedHistogram::FinishLoadingIfReady() {
  if (static_cast<std::int64_t>(loading_counts_.size()) < config_.buckets) {
    return;
  }
  // "Read the first n distinct points; set the bucket borders between
  // them": bucket i spans from the i-th distinct value to the next one, so
  // all mass collected so far sits exactly in its own bucket.
  buckets_.clear();
  buckets_.reserve(loading_counts_.size());
  for (const auto& [value, count] : loading_counts_) {
    buckets_.push_back({static_cast<double>(value), count, false});
  }
  right_edge_ = buckets_.back().left + 1.0;
  loading_counts_.clear();
  loading_ = false;
  RebuildChiSquareAccumulators();
}

std::size_t DynamicCompressedHistogram::FindBucket(std::int64_t value) const {
  DH_DCHECK(!buckets_.empty());
  const double x = static_cast<double>(value);
  // Largest bucket whose left border does not exceed the value.
  const auto it = std::upper_bound(
      buckets_.begin(), buckets_.end(), x,
      [](double v, const Bucket& b) { return v < b.left; });
  if (it == buckets_.begin()) return 0;
  return static_cast<std::size_t>(it - buckets_.begin()) - 1;
}

void DynamicCompressedHistogram::AddToBucket(std::size_t index, double delta) {
  Bucket& b = buckets_[index];
  // Repartitioning equalizes counts, which can leave fractional values; a
  // deletion must never drive a count negative, so clamp the step.
  if (delta < -b.count) delta = -b.count;
  if (!b.singular) {
    // Incremental chi-square bookkeeping: one regular count changes.
    reg_sum_ += delta;
    reg_sum_sq_ += (b.count + delta) * (b.count + delta) - b.count * b.count;
  }
  b.count += delta;
  total_ += delta;
  DH_DCHECK(b.count >= 0.0);
}

bool DynamicCompressedHistogram::ChiSquareTriggered() const {
  // alpha_min = 0 freezes the initial histogram and never repartitions
  // (§3); the comparison below cannot implement that because GammaQ
  // underflows to exactly 0 for extreme deviations.
  if (config_.alpha_min <= 0.0) return false;
  if (reg_buckets_ < 2 || reg_sum_ <= 0.0) return false;
  const auto k = static_cast<double>(reg_buckets_);
  const double mean = reg_sum_ / k;
  const double chi2 =
      std::max(0.0, reg_sum_sq_ - reg_sum_ * reg_sum_ / k) / mean;
  return ChiSquareProbability(chi2, k - 1.0) <= config_.alpha_min;
}

void DynamicCompressedHistogram::RebuildChiSquareAccumulators() {
  reg_sum_ = 0.0;
  reg_sum_sq_ = 0.0;
  reg_buckets_ = 0;
  for (const Bucket& b : buckets_) {
    if (b.singular) continue;
    reg_sum_ += b.count;
    reg_sum_sq_ += b.count * b.count;
    ++reg_buckets_;
  }
}

void DynamicCompressedHistogram::Insert(std::int64_t value) {
  InsertN(value, 1);
}

void DynamicCompressedHistogram::InsertN(std::int64_t value,
                                         std::int64_t count) {
  if (count <= 0) return;
  const auto weight = static_cast<double>(count);
  if (loading_) {
    loading_counts_[value] += weight;
    total_ += weight;
    FinishLoadingIfReady();
    return;
  }
  const double x = static_cast<double>(value);
  std::size_t index;
  if (x < buckets_.front().left) {
    // Extend the leftmost bucket's range down to the new point. If it was
    // singular its width is no longer one, so it degrades to regular.
    Bucket& front = buckets_.front();
    front.left = x;
    if (front.singular) {
      front.singular = false;
      reg_sum_ += front.count;
      reg_sum_sq_ += front.count * front.count;
      ++reg_buckets_;
    }
    index = 0;
  } else if (x + 1.0 > right_edge_) {
    right_edge_ = x + 1.0;
    Bucket& back = buckets_.back();
    if (back.singular) {
      back.singular = false;
      reg_sum_ += back.count;
      reg_sum_sq_ += back.count * back.count;
      ++reg_buckets_;
    }
    index = buckets_.size() - 1;
  } else {
    index = FindBucket(value);
  }
  AddToBucket(index, +weight);
  if (ChiSquareTriggered()) Repartition();
}

std::size_t DynamicCompressedHistogram::NearestBucketWithWholePoint(
    std::size_t index, std::int64_t value) const {
  const double x = static_cast<double>(value);
  const auto distance_to = [&](std::size_t i) {
    const double right =
        (i + 1 < buckets_.size()) ? buckets_[i + 1].left : right_edge_;
    return x < buckets_[i].left ? buckets_[i].left - x
           : x >= right         ? x - right
                                : 0.0;
  };
  // Buckets tile the axis, so the distance grows strictly as the walk moves
  // away from `index` on either side: each side stops at its first bucket
  // holding a whole point, and is abandoned once even its nearest
  // unexplored bucket cannot beat the current best. Ties keep the lower
  // index, exactly like the full scan this replaces.
  std::size_t best = buckets_.size();
  double best_distance = 0.0;
  std::int64_t lo = static_cast<std::int64_t>(index);
  std::size_t hi = index + 1;
  bool lo_done = false;
  bool hi_done = false;
  while (!lo_done || !hi_done) {
    if (!lo_done) {
      if (lo < 0) {
        lo_done = true;
      } else {
        const auto i = static_cast<std::size_t>(lo);
        const double d = distance_to(i);
        if (best < buckets_.size() && d > best_distance) {
          lo_done = true;
        } else if (buckets_[i].count >= 1.0) {
          best = i;
          best_distance = d;
          lo_done = true;
        } else {
          --lo;
        }
      }
    }
    if (!hi_done) {
      if (hi >= buckets_.size()) {
        hi_done = true;
      } else if (best < buckets_.size() &&
                 distance_to(hi) >= best_distance) {
        hi_done = true;
      } else if (buckets_[hi].count >= 1.0) {
        best = hi;
        best_distance = distance_to(hi);
        hi_done = true;
      } else {
        ++hi;
      }
    }
  }
  if (best == buckets_.size()) {
    // Less than one point of mass anywhere (heavy clamped deletions);
    // take it from the fullest bucket, clamped at zero.
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (best == buckets_.size() ||
          buckets_[i].count > buckets_[best].count) {
        best = i;
      }
    }
  }
  return best;
}

void DynamicCompressedHistogram::Delete(std::int64_t value,
                                        std::int64_t /*live_copies_before*/) {
  DeleteN(value, 1);
}

void DynamicCompressedHistogram::DeleteOne(std::int64_t value) {
  std::size_t index = FindBucket(value);
  if (buckets_[index].count < 1.0) {
    // The bucket has spilled its mass elsewhere; remove the point from the
    // closest bucket that still has a whole point of mass (§7.3).
    index = NearestBucketWithWholePoint(index, value);
  }
  AddToBucket(index, -1.0);
  if (ChiSquareTriggered()) Repartition();
}

void DynamicCompressedHistogram::DeleteN(std::int64_t value,
                                         std::int64_t count) {
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
  const std::size_t index = FindBucket(value);
  if (buckets_[index].count >= weight) {
    // The whole group fits in the value's own bucket: one weighted step,
    // one chi-square check.
    AddToBucket(index, -weight);
    if (ChiSquareTriggered()) Repartition();
    return;
  }
  // Some of the group must spill to neighbors; replay per point so each
  // deletion picks its nearest remaining whole point (§7.3).
  for (std::int64_t i = 0; i < count; ++i) DeleteOne(value);
}

void DynamicCompressedHistogram::Repartition() {
  ++repartitions_;
  const double threshold = total_ / static_cast<double>(config_.buckets);

  // Step 1 (§3 pseudo-code): degrade singular buckets that no longer carry
  // more than their equi-depth share.
  for (Bucket& b : buckets_) {
    if (b.singular && b.count <= threshold) b.singular = false;
  }

  // Degenerate guard: the surviving singulars must leave enough regular
  // budget to cover the regions between them (at most s+1 regions need a
  // bucket, and s singulars leave n-s regular buckets).
  auto count_singular = [&] {
    std::int64_t s = 0;
    for (const Bucket& b : buckets_) s += b.singular ? 1 : 0;
    return s;
  };
  while (count_singular() + 1 > config_.buckets - count_singular()) {
    std::size_t smallest = buckets_.size();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (!buckets_[i].singular) continue;
      if (smallest == buckets_.size() ||
          buckets_[i].count < buckets_[smallest].count) {
        smallest = i;
      }
    }
    DH_CHECK(smallest < buckets_.size());
    buckets_[smallest].singular = false;
  }

  // Step 2: carve the axis into maximal regions of consecutive regular
  // buckets separated by the surviving singulars.
  struct Region {
    std::vector<PiecewiseCdf::Piece> pieces;
    double left = 0.0, right = 0.0, mass = 0.0;
  };
  std::vector<Region> regions;
  std::vector<Bucket> singulars;
  {
    Region current;
    bool open = false;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const Bucket& b = buckets_[i];
      const double right =
          b.singular ? b.left + 1.0
          : (i + 1 < buckets_.size()) ? buckets_[i + 1].left
                                      : right_edge_;
      if (b.singular) {
        if (open) {
          regions.push_back(std::move(current));
          current = Region();
          open = false;
        }
        singulars.push_back(b);
        continue;
      }
      if (!open) {
        current.left = b.left;
        open = true;
      }
      if (right > b.left) {
        current.pieces.push_back({b.left, right, b.count});
        current.mass += b.count;
        current.right = right;
      }
    }
    if (open) regions.push_back(std::move(current));
  }

  // Step 3: hand the regular budget to regions proportionally to mass
  // (largest remainder; floor of one bucket per massy region; a region can
  // hold at most as many width>=1 buckets as it spans integer cells).
  const std::int64_t regular_budget =
      config_.buckets - static_cast<std::int64_t>(singulars.size());
  std::vector<std::int64_t> alloc(regions.size(), 0);
  std::vector<std::int64_t> cap(regions.size(), 0);
  double total_mass = 0.0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    cap[r] = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(regions[r].right - regions[r].left));
    total_mass += regions[r].mass;
  }
  std::int64_t used = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (regions[r].mass <= 0.0) continue;
    alloc[r] = 1;
    ++used;
  }
  if (total_mass > 0.0) {
    // Proportional whole shares first, then leftovers by largest remainder.
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (regions[r].mass <= 0.0) continue;
      const double exact = static_cast<double>(regular_budget) *
                           regions[r].mass / total_mass;
      std::int64_t whole = static_cast<std::int64_t>(exact);
      // Grant beyond the floor of 1, but never past the region's width cap
      // or the remaining budget (the floors already consumed one bucket per
      // massy region, so a dominant region's full proportional share may no
      // longer fit).
      whole = std::min({whole, cap[r]}) - alloc[r];
      whole = std::min(whole, regular_budget - used);
      if (whole > 0) {
        alloc[r] += whole;
        used += whole;
      }
      remainders.push_back({exact - std::floor(exact), r});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    bool progress = true;
    while (used < regular_budget && progress) {
      progress = false;
      for (const auto& [frac, r] : remainders) {
        if (used >= regular_budget) break;
        if (alloc[r] < cap[r]) {
          ++alloc[r];
          ++used;
          progress = true;
        }
      }
    }
  }

  // Step 4: respecify borders inside each region so counts equalize
  // ("redistribute the regular buckets to equalize their counts").
  // Borders snap to integer attribute positions, which is what allows
  // width-one buckets to form and later be promoted to singular.
  std::vector<Bucket> rebuilt;
  rebuilt.reserve(static_cast<std::size_t>(config_.buckets));
  std::size_t region_idx = 0;
  std::size_t singular_idx = 0;
  const auto emit_region = [&](const Region& region, std::int64_t n_buckets) {
    if (n_buckets <= 0 || region.mass <= 0.0) return;
    const PiecewiseCdf cdf(region.pieces);
    std::vector<double> borders;
    borders.push_back(region.left);
    for (std::int64_t j = 1; j < n_buckets; ++j) {
      const double target =
          region.mass * static_cast<double>(j) / static_cast<double>(n_buckets);
      double x = std::round(cdf.Invert(target));
      const double lo = borders.back() + 1.0;
      const double hi =
          region.right - static_cast<double>(n_buckets - j);
      x = std::clamp(x, lo, hi);
      borders.push_back(x);
    }
    borders.push_back(region.right);
    for (std::size_t j = 0; j + 1 < borders.size(); ++j) {
      const double count = cdf.CumAt(borders[j + 1]) - cdf.CumAt(borders[j]);
      rebuilt.push_back({borders[j], std::max(0.0, count), false});
    }
  };
  // Stitch regions and singulars back in axis order.
  while (region_idx < regions.size() || singular_idx < singulars.size()) {
    const bool take_region =
        region_idx < regions.size() &&
        (singular_idx >= singulars.size() ||
         regions[region_idx].left < singulars[singular_idx].left);
    if (take_region) {
      emit_region(regions[region_idx], alloc[region_idx]);
      ++region_idx;
    } else {
      rebuilt.push_back(singulars[singular_idx]);
      ++singular_idx;
    }
  }
  DH_CHECK(!rebuilt.empty());
  DH_CHECK(static_cast<std::int64_t>(rebuilt.size()) <= config_.buckets);
  buckets_ = std::move(rebuilt);

  // Step 5: promote width-one regular buckets that now exceed the
  // equi-depth share to singular.
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& b = buckets_[i];
    if (b.singular || b.count <= threshold) continue;
    const double right =
        (i + 1 < buckets_.size()) ? buckets_[i + 1].left : right_edge_;
    if (right - b.left == 1.0) b.singular = true;
  }
  RebuildChiSquareAccumulators();
}

std::int64_t DynamicCompressedHistogram::SingularCount() const {
  std::int64_t s = 0;
  for (const Bucket& b : buckets_) s += b.singular ? 1 : 0;
  return s;
}

HistogramModel DynamicCompressedHistogram::Model() const {
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
  pieces.reserve(buckets_.size());
  refs.reserve(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    const double right = b.singular ? b.left + 1.0
                         : (i + 1 < buckets_.size()) ? buckets_[i + 1].left
                                                     : right_edge_;
    refs.push_back(
        {static_cast<std::uint32_t>(pieces.size()), 1, b.singular});
    pieces.push_back({b.left, right, b.count});
  }
  return HistogramModel(std::move(pieces), std::move(refs));
}

}  // namespace dynhist
