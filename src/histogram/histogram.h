// The maintainable-histogram interface.
//
// Dynamic histograms (§1) are "continuously updateable, closely tracking
// changes to the actual data": they absorb the insert/delete stream of the
// underlying relation and can produce an estimation snapshot at any moment.
// Everything the optimizer sees goes through Model(); everything the DBMS
// does to the data goes through Insert()/Delete().

#ifndef DYNHIST_HISTOGRAM_HISTOGRAM_H_
#define DYNHIST_HISTOGRAM_HISTOGRAM_H_

#include <cstdint>
#include <string>

#include "src/histogram/model.h"

namespace dynhist {

/// Abstract incrementally-maintained histogram.
class Histogram {
 public:
  virtual ~Histogram() = default;

  /// Records the insertion of one tuple with attribute value `value`.
  virtual void Insert(std::int64_t value) = 0;

  /// Records the deletion of one tuple with attribute value `value`.
  ///
  /// `live_copies_before` is the number of copies of `value` in the
  /// relation just before this deletion. The executor deletes a concrete
  /// tuple, so the count is always available to the system; histogram
  /// classes that track only aggregates ignore it (DC, DVO/DADO and
  /// ST-FEEDBACK route Delete to DeleteN(value, 1)), while the sampling-
  /// backed AC histogram uses it to decide whether the deleted tuple was
  /// in its backing sample (README "Substitutions", item 3).
  virtual void Delete(std::int64_t value,
                      std::int64_t live_copies_before) = 0;

  /// Records `count` insertions of `value`. Semantically equivalent to
  /// calling Insert() `count` times; the aggregate-tracking classes
  /// override it to absorb the whole group in one maintenance step, which
  /// is what makes coalesced engine batches cost O(distinct values)
  /// instead of O(operations). A weighted step may take a different
  /// maintenance trajectory (repartition trigger points) than the
  /// one-by-one replay; total mass and estimation quality are unaffected.
  virtual void InsertN(std::int64_t value, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) Insert(value);
  }

  /// Records `count` deletions of `value`. Equivalent to `count` Delete()
  /// calls with the conservative live-copies value of 1 (the engine's
  /// convention; see Delete). Overrides fall back to per-operation deletes
  /// whenever the weighted fast path cannot remove the full `count`.
  virtual void DeleteN(std::int64_t value, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) Delete(value, 1);
  }

  /// Records one query-feedback observation: the range predicate
  /// lo <= A <= hi (inclusive integers, the EstimateRange convention)
  /// was executed and returned `actual` tuples. Feedback-trained
  /// histograms (st_feedback.h) fold the observed estimation error into
  /// their buckets and return the pre-update absolute error
  /// |actual - est|; data-driven histograms ignore the observation and
  /// return -1.0 (the "unsupported" sentinel), so feedback can be
  /// broadcast to heterogeneous backends safely.
  virtual double ApplyFeedback(std::int64_t lo, std::int64_t hi,
                               double actual) {
    (void)lo;
    (void)hi;
    (void)actual;
    return -1.0;
  }

  /// Exports the current estimation snapshot.
  virtual HistogramModel Model() const = 0;

  /// Number of live data points the histogram believes it covers.
  virtual double TotalCount() const = 0;

  /// Short algorithm name for reports ("DC", "DADO", ...).
  virtual std::string Name() const = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_HISTOGRAM_H_
