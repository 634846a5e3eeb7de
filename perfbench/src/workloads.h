// The two workloads. Each generates its inputs from the seed, runs the
// pass schedule (common.h), checks its outputs and fills an Outcome.
//
//   ingest  3 closed-loop writers, 8 columns, sync publish — write path
//   serve   2 closed-loop planners + 1 open-loop writer at 200k updates/s,
//           32 columns, async publish, one scrape a second — read path
//
// A pass is a fixed amount of work (an op count) on fresh engines; passes
// repeat until the run's seconds are used.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>

#include "perfbench/src/common.h"

namespace perfbench {

Outcome RunIngest(const RunConfig& config);
Outcome RunServe(const RunConfig& config);

/// Digest of the inputs each workload generates for `seed` (the
/// determinism self-test compares two generations).
std::uint64_t IngestInputsDigest(std::uint64_t seed, bool smoke);
std::uint64_t ServeInputsDigest(std::uint64_t seed, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
