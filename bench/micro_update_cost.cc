// Per-update cost micro-benchmarks (google-benchmark).
//
// Backs the cost analysis of §3.1 / §4.4: DC pays O(log n) per insert (a
// binary search plus O(1) chi-square bookkeeping), and so do DVO/DADO (a
// bucket search, the rho of the changed bucket and its two pairs, and a
// tournament-tree repair that keeps Theorem 4.1's split and merge
// candidates on top; only an executed repartition pays O(n), to shift the
// bucket vectors). AC's cost is dominated by its backing-sample
// maintenance. Also measures Model() export, deletion, and the static
// construction costs behind Fig. 13.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

using namespace dynhist;
using namespace dynhist::bench;

constexpr std::int64_t kDomain = 5'001;

std::vector<std::int64_t> BenchValues() {
  ClusterDataConfig config;
  config.num_points = 200'000;
  config.seed = 42;
  return GenerateClusterData(config);
}

// Pre-warms a histogram with 50k points, then measures steady-state
// insert cost over the rest of the stream.
void InsertBenchmark(benchmark::State& state, const std::string& algo,
                     double memory_bytes) {
  static const std::vector<std::int64_t> values = BenchValues();
  auto h = MakeDynamic(algo, memory_bytes, 1);
  std::size_t i = 0;
  for (; i < 50'000; ++i) h->Insert(values[i]);
  for (auto _ : state) {
    h->Insert(values[i]);
    if (++i == values.size()) i = 50'000;  // stay in steady state
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Insert_DC(benchmark::State& state) {
  InsertBenchmark(state, "DC", Kb(1.0));
}
void BM_Insert_DADO(benchmark::State& state) {
  InsertBenchmark(state, "DADO", Kb(1.0));
}
void BM_Insert_DVO(benchmark::State& state) {
  InsertBenchmark(state, "DVO", Kb(1.0));
}
void BM_Insert_AC(benchmark::State& state) {
  InsertBenchmark(state, "AC", Kb(1.0));
}
void BM_Insert_Birch(benchmark::State& state) {
  InsertBenchmark(state, "Birch", Kb(1.0));
}
BENCHMARK(BM_Insert_DC);
BENCHMARK(BM_Insert_DADO);
BENCHMARK(BM_Insert_DVO);
BENCHMARK(BM_Insert_AC);
BENCHMARK(BM_Insert_Birch);

// Insert cost as a function of the bucket budget: DADO's O(log n) tree
// repair, plus the O(n) vector shift of each executed repartition.
void BM_Insert_DADO_Memory(benchmark::State& state) {
  InsertBenchmark(state, "DADO", static_cast<double>(state.range(0)));
}
BENCHMARK(BM_Insert_DADO_Memory)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Delete_DADO(benchmark::State& state) {
  static const std::vector<std::int64_t> values = BenchValues();
  auto h = MakeDynamic("DADO", Kb(1.0), 1);
  FrequencyVector truth(kDomain);
  for (std::size_t i = 0; i < 100'000; ++i) {
    h->Insert(values[i]);
    truth.Insert(values[i]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // Alternate delete/insert to keep the histogram populated.
    const std::int64_t v = values[i % 100'000];
    if (truth.Count(v) > 0) {
      h->Delete(v, truth.Count(v));
      truth.Delete(v);
    }
    h->Insert(v);
    truth.Insert(v);
    ++i;
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_Delete_DADO);

void BM_ModelExport_DADO(benchmark::State& state) {
  static const std::vector<std::int64_t> values = BenchValues();
  auto h = MakeDynamic("DADO", Kb(1.0), 1);
  for (std::size_t i = 0; i < 100'000; ++i) h->Insert(values[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h->Model());
  }
}
BENCHMARK(BM_ModelExport_DADO);

void StaticBuildBenchmark(benchmark::State& state, const std::string& name) {
  static const FrequencyVector truth(kDomain, BenchValues());
  const double memory = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildStatic(name, memory, truth));
  }
}

void BM_Build_SC(benchmark::State& state) {
  StaticBuildBenchmark(state, "SC");
}
void BM_Build_SSBM(benchmark::State& state) {
  StaticBuildBenchmark(state, "SSBM");
}
void BM_Build_SVO(benchmark::State& state) {
  StaticBuildBenchmark(state, "SVO");
}
BENCHMARK(BM_Build_SC)->Arg(256)->Arg(1024);
BENCHMARK(BM_Build_SSBM)->Arg(256)->Arg(1024);
BENCHMARK(BM_Build_SVO)->Arg(256);

void BM_Build_SSBM_Quadratic(benchmark::State& state) {
  static const FrequencyVector truth(kDomain, BenchValues());
  const auto entries = truth.NonZeroEntries();
  const std::int64_t buckets =
      BucketBudget(static_cast<double>(state.range(0)),
                   BucketLayout::kBorderCount);
  SsbmOptions options;
  options.use_quadratic_scan = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSsbm(entries, buckets, options));
  }
}
BENCHMARK(BM_Build_SSBM_Quadratic)->Arg(256);

void BM_KsStatistic(benchmark::State& state) {
  static const FrequencyVector truth(kDomain, BenchValues());
  const auto model = BuildStatic("SC", Kb(1.0), truth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KsStatistic(truth, model));
  }
}
BENCHMARK(BM_KsStatistic);

}  // namespace

BENCHMARK_MAIN();
