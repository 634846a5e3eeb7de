#include "src/telemetry/log_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dynhist::telemetry {

LogBucketer LogBucketer::PowersOfTwo() {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(64);
  for (int i = 0; i < 64; ++i) bounds.push_back(std::uint64_t{1} << i);
  return LogBucketer(Scheme::kPowersOfTwo, std::move(bounds));
}

LogBucketer LogBucketer::PerDecade(int per_decade) {
  DH_CHECK(per_decade >= 1);
  std::vector<std::uint64_t> bounds;
  // Walk 10^(j / per_decade) until the next boundary would overflow
  // uint64 (10^19.26... ~ 1.8e19 < 2^64); rounding collides below one
  // decade's span, so consecutive duplicates are dropped.
  const double max_value =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  for (int j = 0;; ++j) {
    const double b =
        std::pow(10.0, static_cast<double>(j) / per_decade);
    if (b >= max_value) break;
    const auto bound = static_cast<std::uint64_t>(std::llround(b));
    if (!bounds.empty() && bound <= bounds.back()) continue;
    bounds.push_back(bound);
  }
  return LogBucketer(Scheme::kGeneric, std::move(bounds));
}

std::size_t LogBucketer::BucketFor(std::uint64_t value) const {
  if (scheme_ == Scheme::kPowersOfTwo) {
    // Buckets <= value are exactly 1, 2, ..., 2^(bit_width-1).
    return static_cast<std::size_t>(std::bit_width(value));
  }
  return static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

double LogBucketer::UpperBound(std::size_t i) const {
  if (i >= bounds_.size()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(bounds_[i]);
}

LogHistogram::LogHistogram(LogBucketer bucketer)
    : bucketer_(std::move(bucketer)),
      counts_(new std::atomic<std::uint64_t>[bucketer_.bucket_count()]) {
  for (std::size_t i = 0; i < bucketer_.bucket_count(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void LogHistogram::Record(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  counts_[bucketer_.BucketFor(value)].fetch_add(n,
                                                std::memory_order_relaxed);
  sum_.fetch_add(value * n, std::memory_order_relaxed);
}

LogHistogramSnapshot LogHistogram::Snapshot() const {
  LogHistogramSnapshot snapshot;
  snapshot.bucketer = bucketer_;
  snapshot.counts.resize(bucketer_.bucket_count());
  for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
    snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snapshot.count += snapshot.counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace dynhist::telemetry
