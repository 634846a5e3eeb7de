// Global histograms over shared-nothing unions (§8).
//
// Two ways to build a union-level histogram within memory M:
//   1. "histogram + union": each site builds a local histogram; the global
//      histogram superimposes them (lossless — a border wherever any input
//      has a border, masses added) and then reduces the composite back to
//      the M-byte bucket budget by treating it as a data set and
//      re-partitioning with SSBM (the merge core, src/histogram/merge.h).
//   2. "union + histogram": ship all the data, merge it, and build one
//      histogram directly.
// The paper finds the two "approximately of the same quality"
// (Figs. 20-23); option 1 moves O(M) bytes per site instead of the data.

#ifndef DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_
#define DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_

#include <vector>

#include "src/distributed/site.h"
#include "src/histogram/model.h"

namespace dynhist::distributed {

/// Strategy for building the union-level histogram.
enum class GlobalStrategy {
  kHistogramThenUnion,  ///< local histograms -> superimpose -> reduce
  kUnionThenHistogram,  ///< merge all data -> build one histogram
};

/// Builds the global histogram over `sites` within `memory_bytes` (both the
/// local histograms and the final global histogram get this budget, §8).
HistogramModel BuildGlobalHistogram(const std::vector<Site>& sites,
                                    GlobalStrategy strategy,
                                    double memory_bytes);

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_GLOBAL_HISTOGRAM_H_
