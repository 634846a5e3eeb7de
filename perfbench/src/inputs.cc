#include "perfbench/src/inputs.h"

#include <cmath>
#include <cstdio>

#include "perfbench/src/common.h"

namespace perfbench {

using dynhist::FrequencyVector;
using dynhist::Rng;
using dynhist::UpdateOp;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::int64_t> ClusterValues(std::uint64_t column_stream,
                                        std::int64_t n) {
  dynhist::ClusterDataConfig config;
  config.num_points = n;
  config.domain_size = kDomain;
  config.center_skew_s = 1.0;
  config.size_skew_z = 1.0;
  config.stddev_sd = 2.0;
  config.seed = MixSeed(0x0c1a55e5, column_stream);
  return dynhist::GenerateClusterData(config);
}

std::vector<std::int64_t> SampleValues(const std::vector<std::int64_t>& values,
                                       std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> sample;
  sample.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sample.push_back(values[rng.UniformInt(std::uint64_t{values.size()})]);
  }
  return sample;
}

std::vector<Op> MakeScript(
    std::uint64_t seed, std::size_t n,
    const std::vector<std::vector<std::int64_t>>& values) {
  Rng rng(seed);
  const dynhist::ZipfDistribution columns(values.size(), 1.0);
  std::vector<std::vector<std::int32_t>> live(values.size());
  std::vector<Op> script;
  script.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto column = static_cast<std::uint16_t>(columns.Sample(rng));
    std::vector<std::int32_t>& mine = live[column];
    if (rng.UniformInt(std::uint64_t{4}) == 0 && !mine.empty()) {
      const std::size_t pick = rng.UniformInt(std::uint64_t{mine.size()});
      script.push_back({mine[pick], column, 1});
      mine[pick] = mine.back();
      mine.pop_back();
    } else {
      const std::vector<std::int64_t>& pool = values[column];
      const auto v = static_cast<std::int32_t>(
          pool[rng.UniformInt(std::uint64_t{pool.size()})]);
      script.push_back({v, column, 0});
      mine.push_back(v);
    }
  }
  return script;
}

void ApplyToTruth(const std::vector<Op>& script,
                  std::vector<FrequencyVector>* truth) {
  for (const Op& op : script) {
    FrequencyVector& t = (*truth)[op.column];
    if (op.is_delete) {
      t.Delete(op.value);
    } else {
      t.Insert(op.value);
    }
  }
}

void AppendColumnOps(const std::vector<Op>& script, std::size_t column,
                     std::vector<UpdateOp>* out) {
  for (const Op& op : script) {
    if (op.column != column) continue;
    out->push_back(op.is_delete ? UpdateOp::Delete(op.value)
                                : UpdateOp::Insert(op.value));
  }
}

std::uint64_t Digest(const std::vector<Op>& script, std::uint64_t hash) {
  for (const Op& op : script) {
    hash = Fnv1a(&op.value, sizeof(op.value), hash);
    hash = Fnv1a(&op.column, sizeof(op.column), hash);
    hash = Fnv1a(&op.is_delete, sizeof(op.is_delete), hash);
  }
  return hash;
}

std::uint64_t Digest(const std::vector<std::int64_t>& values,
                     std::uint64_t hash) {
  return Fnv1a(values.data(), values.size() * sizeof(values[0]), hash);
}

void CheckMass(dynhist::engine::HistogramEngine& engine,
               const std::string& column, std::int64_t live,
               Outcome* out) {
  const auto expected = static_cast<double>(live);
  const double shards = engine.LiveTotalCount(column);
  const double published = engine.Snapshot(column).TotalCount();
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%s: live %.17g, shards %.17g, published %.17g",
                column.c_str(), expected, shards, published);
  out->Check(shards == expected, std::string("shard mass differs: ") + detail);
  out->Check(std::fabs(published - expected) <= 1e-9 * expected,
             std::string("published mass differs: ") + detail);
}

std::vector<std::string> ColumnNames(const std::string& prefix,
                                     std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < count; ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".c%02zu", c);
    names.push_back(prefix + buf);
  }
  return names;
}

}  // namespace perfbench
