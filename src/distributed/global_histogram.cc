#include "src/distributed/global_histogram.h"

#include <cstdint>

#include "src/common/check.h"
#include "src/histogram/budget.h"
#include "src/histogram/merge.h"
#include "src/histogram/ssbm.h"

namespace dynhist::distributed {

HistogramModel BuildGlobalHistogram(const std::vector<Site>& sites,
                                    GlobalStrategy strategy,
                                    double memory_bytes) {
  DH_CHECK(!sites.empty());
  const std::int64_t buckets =
      BucketBudget(memory_bytes, BucketLayout::kBorderCount);
  switch (strategy) {
    case GlobalStrategy::kHistogramThenUnion: {
      std::vector<HistogramModel> locals;
      locals.reserve(sites.size());
      for (const Site& site : sites) {
        locals.push_back(site.BuildLocalHistogram(memory_bytes));
      }
      SnapshotMerger merger;
      return merger.MergeAndReduce(locals, buckets);
    }
    case GlobalStrategy::kUnionThenHistogram: {
      const FrequencyVector all = UnionData(sites);
      return BuildSsbm(all, buckets);
    }
  }
  DH_CHECK(false);
  return HistogramModel();
}

}  // namespace dynhist::distributed
