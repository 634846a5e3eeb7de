// The alternative error metric of §6.2, Eq. (7):
//
//   E = (100 / |Q|) * sum over queries q of |S_q - S'_q| / S_q
//
// where S_q is the true size of range query q and S'_q the histogram
// estimate. The paper prefers the KS statistic because Eq. (7) depends on
// the query set; we implement both query-set choices the paper discusses
// (uniform range endpoints, and endpoints drawn from the data distribution)
// so the dependence can be demonstrated (bench/ablation_error_metric).

#ifndef DYNHIST_METRICS_QUERY_ERROR_H_
#define DYNHIST_METRICS_QUERY_ERROR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/data/frequency_vector.h"
#include "src/histogram/model.h"

namespace dynhist {

/// A closed range predicate lo <= A <= hi (inclusive integer bounds).
struct RangeQuery {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// `count` queries whose endpoints are uniform over the domain.
std::vector<RangeQuery> MakeUniformQueries(std::int64_t domain_size,
                                           std::size_t count, Rng& rng);

/// `count` queries whose endpoints are drawn from the data distribution
/// itself (the paper's other candidate query workload).
std::vector<RangeQuery> MakeDataQueries(const FrequencyVector& truth,
                                        std::size_t count, Rng& rng);

/// Eq. (7): average relative selectivity error in percent over `queries`.
/// Queries with true size zero are skipped (relative error is undefined);
/// if all queries are skipped the result is 0.
double AvgRelativeErrorPercent(const FrequencyVector& truth,
                               const HistogramModel& model,
                               const std::vector<RangeQuery>& queries);

}  // namespace dynhist

#endif  // DYNHIST_METRICS_QUERY_ERROR_H_
