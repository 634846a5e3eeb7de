// Log-scale-bucketed latency/size histograms (the HistogramTools shape).
//
// Production telemetry systems summarize long-tailed quantities — latency
// in nanoseconds, batch sizes, queue waits — with a fixed set of
// logarithmically spaced buckets: resolution proportional to magnitude and
// constant memory (HistogramTools, arXiv 2504.00001).
// This engine serves dynamic histograms of *data*; these are the
// histograms it keeps about *itself*.
//
// Two bucketing schemes are provided:
//   - powers of two: bucket i >= 1 covers [2^(i-1), 2^i); index is one
//     bit-scan, the cheapest possible hot-path mapping;
//   - k buckets per decade (HistogramTools' default is 4): boundaries at
//     round(10^(j/k)), deduplicated at the small end where rounding
//     collides; ~2.4x resolution steps for k = 4.
//
// LogHistogram is thread-safe and wait-free on the record path: bucket
// counts and the running sum are relaxed atomics. Snapshot() materializes
// a plain struct for exposition and tests; its total count is the sum of
// the bucket counts it read, so a snapshot taken during concurrent
// Record()s is still a valid cumulative histogram. Its sum agrees with the
// buckets only at external sync points, the same contract EngineStats
// documents.

#ifndef DYNHIST_TELEMETRY_LOG_HISTOGRAM_H_
#define DYNHIST_TELEMETRY_LOG_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dynhist::telemetry {

/// Maps a non-negative value to a fixed log-scale bucket index.
///
/// `bounds()` holds the exclusive upper bound of every bucket but the
/// last: bucket 0 covers [0, bounds[0]), bucket i covers
/// [bounds[i-1], bounds[i]), and the final bucket [bounds.back(), +inf)
/// absorbs overflow. Boundaries are strictly increasing.
class LogBucketer {
 public:
  /// Bucket boundaries 1, 2, 4, ..., 2^63: 65 buckets covering uint64.
  static LogBucketer PowersOfTwo();

  /// `per_decade` boundaries per factor of ten, at round(10^(j/k)),
  /// deduplicated where small-value rounding collides. HistogramTools
  /// uses 4 (boundary ratio ~1.78).
  static LogBucketer PerDecade(int per_decade = 4);

  std::size_t BucketFor(std::uint64_t value) const;
  std::size_t bucket_count() const { return bounds_.size() + 1; }

  /// Inclusive lower bound of bucket `i` (0 for bucket 0).
  std::uint64_t LowerBound(std::size_t i) const {
    return i == 0 ? 0 : bounds_[i - 1];
  }
  /// Exclusive upper bound of bucket `i`; the last bucket is unbounded
  /// and reported as +inf.
  double UpperBound(std::size_t i) const;

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

 private:
  enum class Scheme { kPowersOfTwo, kGeneric };
  LogBucketer(Scheme scheme, std::vector<std::uint64_t> bounds)
      : scheme_(scheme), bounds_(std::move(bounds)) {}

  Scheme scheme_;
  std::vector<std::uint64_t> bounds_;
};

/// Plain materialized view of a LogHistogram at one instant: per-bucket
/// counts aligned with the bucketer's buckets, plus the running
/// aggregates. Cheap value type; feeds exposition.
struct LogHistogramSnapshot {
  LogBucketer bucketer = LogBucketer::PowersOfTwo();
  std::vector<std::uint64_t> counts;  ///< one per bucketer bucket
  std::uint64_t count = 0;            ///< total recorded values: the sum
                                      ///< of `counts`
  std::uint64_t sum = 0;              ///< sum of recorded values
};

/// A fixed-bucket log-scale histogram with atomic counts: wait-free
/// Record() from any thread.
class LogHistogram {
 public:
  explicit LogHistogram(LogBucketer bucketer);

  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Adds `value` (optionally with multiplicity `n`) to its bucket.
  void Record(std::uint64_t value, std::uint64_t n = 1);

  LogHistogramSnapshot Snapshot() const;
  const LogBucketer& bucketer() const { return bucketer_; }

 private:
  const LogBucketer bucketer_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace dynhist::telemetry

#endif  // DYNHIST_TELEMETRY_LOG_HISTOGRAM_H_
