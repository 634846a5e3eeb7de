// Reference implementations of the snapshot-merge core, kept out of the
// library: the pre-sweep superposition, the binary-heap border sweep, and
// the per-integer-cell SSBM reduction ("treat the histogram as a data
// set", §8, literally). The merge-pipeline parity tests and
// micro_merge_pipeline measure the library's sweep and piece-slice
// reduction (src/histogram/merge.h) against them.

#ifndef DYNHIST_TESTS_MERGE_REFERENCE_H_
#define DYNHIST_TESTS_MERGE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/histogram/model.h"

namespace dynhist::testing {

/// Enumerates elementary ranges and integrates every model over each
/// (O(ranges * models * log pieces)), and drops zero-mass ranges — so its
/// support can be smaller than the union of the inputs' supports (masses
/// and CDF are identical to Superimpose).
HistogramModel SuperimposeLegacy(const std::vector<HistogramModel>& models);

/// The k-way border sweep with its next border taken from a binary heap
/// ordered by (position, input index). It emits exactly the library
/// Superimpose's pieces, bit for bit, which the tests hold it to.
HistogramModel SuperimposeHeap(const std::vector<HistogramModel>& models);

/// Rasterizes `model` to expected counts per integer cell [v, v+1), drops
/// cells below 1e-12, and runs SSBM over the cells to `buckets` buckets.
/// O(domain log domain).
HistogramModel ReduceWithSsbmCells(const HistogramModel& model,
                                   std::int64_t buckets);

}  // namespace dynhist::testing

#endif  // DYNHIST_TESTS_MERGE_REFERENCE_H_
