#include "src/metrics/query_error.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace dynhist {

namespace {

RangeQuery Normalized(std::int64_t a, std::int64_t b) {
  if (a > b) std::swap(a, b);
  return {a, b};
}

}  // namespace

std::vector<RangeQuery> MakeUniformQueries(std::int64_t domain_size,
                                           std::size_t count, Rng& rng) {
  DH_CHECK(domain_size > 0);
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(Normalized(rng.UniformInt(0, domain_size - 1),
                                 rng.UniformInt(0, domain_size - 1)));
  }
  return queries;
}

std::vector<RangeQuery> MakeDataQueries(const FrequencyVector& truth,
                                        std::size_t count, Rng& rng) {
  DH_CHECK(truth.TotalCount() > 0);
  // Sample endpoints proportionally to frequency via the inverse CDF.
  const auto sample_value = [&]() {
    const std::int64_t target =
        rng.UniformInt(1, truth.TotalCount());
    std::int64_t lo = 0;
    std::int64_t hi = truth.domain_size() - 1;
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (truth.CumulativeCount(mid) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(Normalized(sample_value(), sample_value()));
  }
  return queries;
}

double AvgRelativeErrorPercent(const FrequencyVector& truth,
                               const HistogramModel& model,
                               const std::vector<RangeQuery>& queries) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const RangeQuery& q : queries) {
    const auto actual =
        static_cast<double>(truth.RangeCount(q.lo, q.hi));
    if (actual == 0.0) continue;  // relative error undefined
    const double estimated = model.EstimateRange(q.lo, q.hi);
    sum += std::fabs(actual - estimated) / actual;
    ++counted;
  }
  if (counted == 0) return 0.0;
  return 100.0 * sum / static_cast<double>(counted);
}

}  // namespace dynhist
