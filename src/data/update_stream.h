// Update-stream builders: the insert/delete workloads of §7.
//
// The paper evaluates every algorithm under five update patterns:
//   (a) random insertions,
//   (b) sorted insertions,
//   (c) random insertions intermixed with random deletions,
//   (d) random insertions followed by random deletions,
//   (e) sorted insertions followed by sorted deletions.
// An UpdateStream is the materialized operation sequence; drivers replay it
// against a histogram and the ground-truth FrequencyVector in lock step.

#ifndef DYNHIST_DATA_UPDATE_STREAM_H_
#define DYNHIST_DATA_UPDATE_STREAM_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace dynhist {

/// One histogram maintenance operation. kInsert/kDelete carry a single
/// attribute value; kFeedback carries a query-feedback observation (the
/// range [value, hi] returned `actual` tuples — see
/// Histogram::ApplyFeedback) and rides the same shard buffers as data
/// ops, so feedback is batched like everything else.
struct UpdateOp {
  enum class Kind : std::uint8_t { kInsert, kDelete, kFeedback };
  Kind kind = Kind::kInsert;
  std::int64_t value = 0;  ///< attribute value; range lo for kFeedback
  std::int64_t hi = 0;     ///< range hi (kFeedback only)
  double actual = 0.0;     ///< observed cardinality (kFeedback only)

  static UpdateOp Insert(std::int64_t v) { return {Kind::kInsert, v, 0, 0.0}; }
  static UpdateOp Delete(std::int64_t v) { return {Kind::kDelete, v, 0, 0.0}; }
  static UpdateOp Feedback(std::int64_t lo, std::int64_t hi, double actual) {
    return {Kind::kFeedback, lo, hi, actual};
  }
};

using UpdateStream = std::vector<UpdateOp>;

/// (a) Inserts `values` in uniformly random order.
UpdateStream MakeRandomInsertStream(std::vector<std::int64_t> values,
                                    Rng& rng);

/// (b) Inserts `values` in ascending value order.
UpdateStream MakeSortedInsertStream(std::vector<std::int64_t> values);

/// (c) Random-order inserts; after each insert, with probability
/// `delete_prob` one uniformly random live tuple is deleted (§7.3.1 uses a
/// 25% deletion rate).
UpdateStream MakeMixedStream(std::vector<std::int64_t> values,
                             double delete_prob, Rng& rng);

/// (d) Random-order inserts of all values, then deletion of
/// `delete_fraction` of the tuples, chosen uniformly at random (Fig. 17).
UpdateStream MakeInsertsThenRandomDeletes(std::vector<std::int64_t> values,
                                          double delete_fraction, Rng& rng);

/// Fig. 18 variant: sorted inserts, then random deletes.
UpdateStream MakeSortedInsertsThenRandomDeletes(
    std::vector<std::int64_t> values, double delete_fraction, Rng& rng);

/// (e) Sorted inserts, then deletion of `delete_fraction` of the tuples in
/// the same sorted order.
UpdateStream MakeSortedInsertsThenSortedDeletes(
    std::vector<std::int64_t> values, double delete_fraction);

}  // namespace dynhist

#endif  // DYNHIST_DATA_UPDATE_STREAM_H_
