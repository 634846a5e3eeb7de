// Static V-Optimal (SVO) and Static Average-Deviation Optimal (SADO)
// histograms (§4, §4.1, Appendix A).
//
// A V-Optimal(V,F) histogram minimizes, over all partitions of the value
// axis into B buckets, the total deviation of value frequencies from their
// bucket average — squared deviations for SVO (Eq. 3), absolute deviations
// for SADO (Eq. 5). Following Eq. (3), the deviation sums range over *all*
// domain values inside a bucket (zero frequencies included), per the
// continuous-value assumption.
//
// The paper constructs SVO by exhaustive search ("exponential in the number
// of buckets", §5/Fig. 13). We substitute an exact dynamic program over the
// distinct-value partition points — O(D^2 · B) time with O(1) bucket costs
// for SVO and Fenwick-tree order statistics for SADO — which returns the
// same optimal partition (README "Substitutions", item 2).

#ifndef DYNHIST_HISTOGRAM_STATIC_VOPTIMAL_H_
#define DYNHIST_HISTOGRAM_STATIC_VOPTIMAL_H_

#include <cstdint>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/histogram/deviation.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Builds the optimal histogram with at most `buckets` buckets under the
/// given deviation policy. Entries must be ascending with positive freq.
HistogramModel BuildDeviationOptimal(const std::vector<ValueFreq>& entries,
                                     std::int64_t buckets,
                                     DeviationPolicy policy);

/// Static V-Optimal (squared deviations, Eq. 3).
HistogramModel BuildVOptimal(const std::vector<ValueFreq>& entries,
                             std::int64_t buckets);

/// Static Average-Deviation Optimal (absolute deviations, Eq. 5).
HistogramModel BuildSado(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets);

/// Convenience overloads reading the current state of a FrequencyVector.
HistogramModel BuildVOptimal(const FrequencyVector& data,
                             std::int64_t buckets);
HistogramModel BuildSado(const FrequencyVector& data, std::int64_t buckets);

/// Total deviation (Eq. 3 / Eq. 5) of a model against the entries it was
/// built from, under the stated policy. Exposed for tests and benches.
double TotalDeviation(const std::vector<ValueFreq>& entries,
                      const HistogramModel& model, DeviationPolicy policy);

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_STATIC_VOPTIMAL_H_
