#include "src/histogram/st_feedback.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "src/common/check.h"

namespace dynhist {
namespace {

// Below this estimated mass the proportional-to-contribution rule has
// nothing to be proportional to; the correction spreads by width instead.
constexpr double kTinyMass = 1e-9;

}  // namespace

StFeedbackHistogram::StFeedbackHistogram(const StFeedbackConfig& config)
    : config_(config) {
  DH_CHECK(config_.buckets >= 1);
  DH_CHECK(config_.domain_hi >= config_.domain_lo);
  DH_CHECK(config_.alpha > 0.0 && config_.alpha <= 1.0);
  DH_CHECK(config_.split_threshold > 0.0);
  DH_CHECK(config_.merge_threshold >= 0.0);
  DH_CHECK(config_.restructure_every >= 0);
  const double lo = static_cast<double>(config_.domain_lo);
  const double hi = static_cast<double>(config_.domain_hi) + 1.0;
  // Never allocate buckets narrower than one attribute-value cell.
  const auto n = static_cast<std::size_t>(
      std::min<std::int64_t>(config_.buckets,
                             std::max<std::int64_t>(
                                 1, static_cast<std::int64_t>(hi - lo))));
  buckets_.reserve(n);
  const double width = (hi - lo) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double left = lo + width * static_cast<double>(i);
    const double right = i + 1 == n ? hi : lo + width * static_cast<double>(i + 1);
    buckets_.push_back({left, right, 0.0});
  }
}

void StFeedbackHistogram::EnsureCovers(double lo, double hi) {
  if (lo < buckets_.front().left) buckets_.front().left = lo;
  if (hi > buckets_.back().right) buckets_.back().right = hi;
}

std::size_t StFeedbackHistogram::FirstOverlapping(double lo) const {
  const auto it = std::partition_point(
      buckets_.begin(), buckets_.end(),
      [lo](const Bucket& b) { return b.right <= lo; });
  return static_cast<std::size_t>(it - buckets_.begin());
}

void StFeedbackHistogram::Insert(std::int64_t value) { InsertN(value, 1); }

void StFeedbackHistogram::Delete(std::int64_t value,
                                 std::int64_t /*live_copies_before*/) {
  DeleteN(value, 1);
}

void StFeedbackHistogram::InsertN(std::int64_t value, std::int64_t count) {
  DH_CHECK(count >= 0);
  if (count == 0) return;
  const auto v = static_cast<double>(value);
  EnsureCovers(v, v + 1.0);
  buckets_[FirstOverlapping(v)].freq += static_cast<double>(count);
}

void StFeedbackHistogram::DeleteN(std::int64_t value, std::int64_t count) {
  DH_CHECK(count >= 0);
  if (count == 0) return;
  const auto v = static_cast<double>(value);
  if (v < buckets_.front().left || v >= buckets_.back().right) return;
  Bucket& b = buckets_[FirstOverlapping(v)];
  b.freq = std::max(0.0, b.freq - static_cast<double>(count));
}

double StFeedbackHistogram::ApplyOne(double lo, double hi, double actual) {
  EnsureCovers(lo, hi);
  const std::size_t first = FirstOverlapping(lo);
  std::size_t last = first;
  double est = 0.0;
  for (std::size_t i = first; i < buckets_.size() && buckets_[i].left < hi;
       ++i) {
    const Bucket& b = buckets_[i];
    const double overlap = std::min(hi, b.right) - std::max(lo, b.left);
    est += b.freq * (overlap / (b.right - b.left));
    last = i + 1;
  }
  const double err = actual - est;
  if (err != 0.0) {
    const double adjust = config_.alpha * err;
    if (est > kTinyMass) {
      // Proportional to contribution: with α <= 1 and actual >= 0 each
      // delta is bounded below by -freq_i·frac_i, so freq never goes
      // negative; the clamp only mops up floating-point residue.
      for (std::size_t i = first; i < last; ++i) {
        Bucket& b = buckets_[i];
        const double overlap = std::min(hi, b.right) - std::max(lo, b.left);
        const double contribution = b.freq * (overlap / (b.right - b.left));
        b.freq = std::max(0.0, b.freq + adjust * (contribution / est));
      }
    } else if (adjust > 0.0) {
      // Nothing there yet: seed the region proportional to covered width.
      const double span = hi - lo;
      for (std::size_t i = first; i < last; ++i) {
        Bucket& b = buckets_[i];
        const double overlap = std::min(hi, b.right) - std::max(lo, b.left);
        b.freq += adjust * (overlap / span);
      }
    }
  }
  return std::fabs(err);
}

double StFeedbackHistogram::ApplyFeedback(std::int64_t lo, std::int64_t hi,
                                          double actual) {
  DH_CHECK(lo <= hi);
  DH_CHECK(actual >= 0.0);
  const double abs_err = ApplyOne(static_cast<double>(lo),
                                  static_cast<double>(hi) + 1.0, actual);
  ++feedbacks_;
  if (config_.restructure_every > 0 &&
      ++since_restructure_ >= config_.restructure_every) {
    since_restructure_ = 0;
    Restructure();
  }
  return abs_err;
}

void StFeedbackHistogram::Restructure() {
  const std::size_t n = buckets_.size();
  if (n < 2) return;
  double total = 0.0;
  for (const Bucket& b : buckets_) total += b.freq;
  if (total <= kTinyMass) return;

  // Split candidates: runaway buckets, wide enough that every resulting
  // part keeps width >= 1 (one attribute-value cell). `want` sizes the
  // split so each part lands back near the threshold.
  const double split_limit = config_.split_threshold * total;
  struct Candidate {
    std::size_t idx = 0;
    int want = 0;
    int got = 0;
  };
  std::vector<Candidate> candidates;
  std::vector<char> is_candidate(n, 0);
  int total_want = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets_[i].freq <= split_limit) continue;
    const double width = buckets_[i].right - buckets_[i].left;
    const int max_extra =
        width >= 2.0 ? static_cast<int>(std::floor(width)) - 1 : 0;
    const int want = std::min(
        max_extra, static_cast<int>(buckets_[i].freq / split_limit));
    if (want <= 0) continue;
    candidates.push_back({i, want, 0});
    is_candidate[i] = 1;
    total_want += want;
  }
  if (total_want == 0) return;

  // Merge pairs fund the splits: adjacent non-candidates with near-equal
  // frequency, cheapest (most similar) first, index breaking ties — the
  // explicit ordering that keeps restructuring bit-stable.
  const double merge_limit = config_.merge_threshold * total;
  struct MergePair {
    double diff = 0.0;
    std::size_t idx = 0;
  };
  std::vector<MergePair> pairs;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (is_candidate[i] || is_candidate[i + 1]) continue;
    const double diff = std::fabs(buckets_[i].freq - buckets_[i + 1].freq);
    if (diff <= merge_limit) pairs.push_back({diff, i});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const MergePair& a, const MergePair& b) {
              if (a.diff != b.diff) return a.diff < b.diff;
              return a.idx < b.idx;
            });
  std::vector<char> merge_at(n, 0);
  std::vector<char> used(n, 0);
  int freed = 0;
  for (const MergePair& p : pairs) {
    if (freed >= total_want) break;
    if (used[p.idx] || used[p.idx + 1]) continue;
    merge_at[p.idx] = 1;
    used[p.idx] = used[p.idx + 1] = 1;
    ++freed;
  }
  if (freed == 0) return;

  // Hand the freed buckets out round-robin, hungriest candidate first
  // (frequency descending, index ascending): every freed bucket is
  // consumed, so the bucket count is invariant across the rebuild.
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (buckets_[candidates[a].idx].freq != buckets_[candidates[b].idx].freq) {
      return buckets_[candidates[a].idx].freq >
             buckets_[candidates[b].idx].freq;
    }
    return candidates[a].idx < candidates[b].idx;
  });
  int remaining = freed;
  while (remaining > 0) {
    bool assigned = false;
    for (const std::size_t oi : order) {
      if (remaining == 0) break;
      if (candidates[oi].got < candidates[oi].want) {
        ++candidates[oi].got;
        --remaining;
        assigned = true;
      }
    }
    if (!assigned) break;
  }

  std::vector<int> extra(n, 0);
  for (const Candidate& c : candidates) extra[c.idx] = c.got;
  std::vector<Bucket> next;
  next.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (merge_at[i]) {
      next.push_back({buckets_[i].left, buckets_[i + 1].right,
                      buckets_[i].freq + buckets_[i + 1].freq});
      ++merges_;
      ++i;  // the partner is absorbed
    } else if (extra[i] > 0) {
      const int parts = extra[i] + 1;
      const Bucket& b = buckets_[i];
      const double width = (b.right - b.left) / parts;
      const double freq = b.freq / parts;
      for (int k = 0; k < parts; ++k) {
        const double left = b.left + width * k;
        const double right = k + 1 == parts ? b.right : b.left + width * (k + 1);
        next.push_back({left, right, freq});
      }
      ++splits_;
    } else {
      next.push_back(buckets_[i]);
    }
  }
  buckets_ = std::move(next);
  ++restructures_;
}

HistogramModel StFeedbackHistogram::Model() const {
  std::vector<HistogramModel::Piece> pieces;
  pieces.reserve(buckets_.size());
  for (const Bucket& b : buckets_) {
    pieces.push_back({b.left, b.right, b.freq});
  }
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

double StFeedbackHistogram::TotalCount() const {
  double total = 0.0;
  for (const Bucket& b : buckets_) total += b.freq;
  return total;
}

}  // namespace dynhist
