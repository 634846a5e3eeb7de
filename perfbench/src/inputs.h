// Workload inputs, generated from the run's seed alone: §6.1 cluster data
// per column and the §7.3.1 update mix. The same seed gives the same
// inputs (the self-test checks the digests); the program under test sees
// only the generated values.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/dynhist.h"

namespace perfbench {

/// Attribute domain [0, 5001), the paper's reference (§7).
inline constexpr std::int64_t kDomain = 5'001;

/// Derives an independent seed for one input stream (splitmix64).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

/// §6.1 cluster data for one column — S = 1, Z = 1, SD = 2, 2000 clusters
/// over [0, 5001) via GenerateClusterData. The data sets are a fixed part
/// of each workload: they come from `column_stream` alone, not the run's
/// seed, so a seed changes the update streams and queries drawn from the
/// data but not the data's shape (KS depends strongly on that shape).
std::vector<std::int64_t> ClusterValues(std::uint64_t column_stream,
                                        std::int64_t n);

/// `n` values drawn uniformly at random, with replacement, from `values`.
std::vector<std::int64_t> SampleValues(const std::vector<std::int64_t>& values,
                                       std::size_t n, std::uint64_t seed);

/// One generated update.
struct Op {
  std::int32_t value = 0;
  std::uint16_t column = 0;
  std::uint8_t is_delete = 0;
};

/// One writer's script of `n` updates (§7.3.1 mix). Columns are drawn with
/// Zipf(1) over `values.size()` columns. 75% are inserts of a
/// uniformly random element of the column's value set; 25% delete a
/// uniformly random tuple this same script inserted earlier into that
/// column (an insert is drawn instead while there is none), so a delete
/// always removes a live tuple its own writer inserted.
std::vector<Op> MakeScript(std::uint64_t seed, std::size_t n,
                           const std::vector<std::vector<std::int64_t>>& values);

/// Applies `script` to per-column ground truth.
void ApplyToTruth(const std::vector<Op>& script,
                  std::vector<dynhist::FrequencyVector>* truth);

/// The ops of `script` on `column`, as engine update ops (for ladders).
void AppendColumnOps(const std::vector<Op>& script, std::size_t column,
                     std::vector<dynhist::UpdateOp>* out);

/// Digest of a script / a value list, chainable.
std::uint64_t Digest(const std::vector<Op>& script, std::uint64_t hash);
std::uint64_t Digest(const std::vector<std::int64_t>& values,
                     std::uint64_t hash);

/// Checks one column's mass after its final publication: the shards hold
/// exactly `live` (LiveTotalCount, compared with ==), and the published
/// snapshot's total is within 1e-9 relative of it — the SSBM reduction
/// sums in floating point, so the published total is not always bit-exact.
void CheckMass(dynhist::engine::HistogramEngine& engine,
               const std::string& column, std::int64_t live,
               Outcome* out);

/// `count` column names "<prefix>.c00", "<prefix>.c01", ...
std::vector<std::string> ColumnNames(const std::string& prefix,
                                     std::size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
