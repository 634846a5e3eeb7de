// Micro-benchmark: the ST-FEEDBACK self-tuning backend.
//
// Measures what the PR's acceptance gates assert, with numbers:
//   1. accuracy — mean absolute range-estimate error on a held-out
//      query set after training on a skewed zipf workload, vs. the
//      untrained equi-width baseline of equal bucket count. The run
//      FAILS (nonzero exit) unless trained is >= 2x better. Measured
//      on this workload: ~180x (trained ~290 vs baseline ~52,000).
//   2. merge survival — the same training driven through a 4-shard
//      engine (RecordFeedback broadcast, Superimpose + ReduceWithSsbm
//      at publish). FAILS unless the merged model's error is within
//      10% of the directly-trained unmerged model's. Measured: 1.00x
//      (bit-equivalent mass: each shard holds an exact 1/k share).
//   3. throughput — ApplyFeedback calls/sec on the plain histogram and
//      RecordFeedback ops/sec through the engine (batching on), plus
//      the per-feedback training-error trajectory at geometric
//      checkpoints, which is the convergence story in one series.
//
// Flags: the shared bench flags (--quick).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dynhist.h"

namespace {

using namespace dynhist;
using bench::Clock;

constexpr std::int64_t kDomain = 5'000;

struct RangeTruth {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  double actual = 0.0;
};

std::vector<RangeTruth> SkewedQueries(const FrequencyVector& truth,
                                      const ZipfDistribution& zipf,
                                      int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeTruth> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto center = static_cast<std::int64_t>(zipf.Sample(rng));
    const std::int64_t width = rng.UniformInt(1, 200);
    const std::int64_t lo = std::max<std::int64_t>(0, center - width / 2);
    const std::int64_t hi = std::min<std::int64_t>(kDomain - 1, lo + width);
    queries.push_back(
        {lo, hi, static_cast<double>(truth.RangeCount(lo, hi))});
  }
  return queries;
}

double MeanAbsError(const HistogramModel& model,
                    const std::vector<RangeTruth>& queries) {
  double sum = 0.0;
  for (const RangeTruth& q : queries) {
    sum += std::fabs(model.EstimateRange(q.lo, q.hi) - q.actual);
  }
  return sum / static_cast<double>(queries.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::FromArgs(argc, argv);
  const int train_queries = options.quick ? 2'000 : 8'000;
  const int data_points = options.quick ? 100'000 : 400'000;
  bool failed = false;

  Rng rng(42);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  FrequencyVector truth(kDomain);
  for (int i = 0; i < data_points; ++i) {
    truth.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  const auto workload = SkewedQueries(truth, zipf, train_queries, 7);
  const auto eval = SkewedQueries(truth, zipf, 2'000, 99);

  StFeedbackConfig config;
  config.buckets = 64;
  config.domain_lo = 0;
  config.domain_hi = kDomain - 1;

  // --- 1. accuracy vs. the untrained equi-width baseline -------------
  StFeedbackHistogram trained(config);
  std::vector<double> checkpoint_x;
  std::vector<double> checkpoint_err;
  {
    int next_checkpoint = 100;
    double window_sum = 0.0;
    int window_n = 0;
    int fed = 0;
    const auto start = Clock::now();
    for (const RangeTruth& q : workload) {
      window_sum += trained.ApplyFeedback(q.lo, q.hi, q.actual);
      ++window_n;
      if (++fed == next_checkpoint) {
        checkpoint_x.push_back(static_cast<double>(fed));
        checkpoint_err.push_back(window_sum /
                                 static_cast<double>(window_n));
        window_sum = 0.0;
        window_n = 0;
        next_checkpoint *= 4;
      }
    }
    const double seconds = bench::SecondsSince(start);
    std::printf("st_feedback: %d ApplyFeedback in %.3fs (%.0f/sec), %llu restructures\n",
                train_queries, seconds,
                static_cast<double>(train_queries) / seconds,
                static_cast<unsigned long long>(trained.restructures()));
    std::printf("st_feedback: windowed training error by feedback count:");
    for (std::size_t i = 0; i < checkpoint_x.size(); ++i) {
      std::printf(" %.0f:%.1f", checkpoint_x[i], checkpoint_err[i]);
    }
    std::printf("\n");
  }

  // Untrained baseline: same equi-width layout, told only total mass.
  StFeedbackConfig baseline_config = config;
  baseline_config.alpha = 1.0;
  baseline_config.restructure_every = 0;
  StFeedbackHistogram baseline(baseline_config);
  baseline.ApplyFeedback(0, kDomain - 1,
                         static_cast<double>(truth.TotalCount()));

  const double trained_mae = MeanAbsError(trained.Model(), eval);
  const double baseline_mae = MeanAbsError(baseline.Model(), eval);
  const double ratio = baseline_mae / trained_mae;
  std::printf("st_feedback: trained MAE %.1f vs untrained equi-width %.1f (%.1fx)\n",
              trained_mae, baseline_mae, ratio);
  if (ratio < 2.0) {
    std::printf("st_feedback: FAIL accuracy gate (%.2fx < 2x)\n", ratio);
    failed = true;
  }

  // --- 2. k-shard merge survival -------------------------------------
  {
    engine::EngineOptions engine_options;
    engine_options.shards = 4;
    engine_options.batch_size = 64;
    engine_options.snapshot_every = 0;
    engine_options.kind = engine::ShardHistogramKind::kStFeedback;
    engine_options.shard_buckets = 64;
    engine_options.merged_buckets = 64;
    engine_options.st_feedback = config;
    engine::HistogramEngine engine(engine_options);
    const engine::KeyHandle handle = engine.Resolve("k");
    const auto start = Clock::now();
    for (const RangeTruth& q : workload) {
      engine.RecordFeedback(handle, q.lo, q.hi, q.actual);
    }
    const double seconds = bench::SecondsSince(start);
    const engine::EngineSnapshot merged = engine.RefreshSnapshot("k");
    const double merged_mae = MeanAbsError(merged.model(), eval);
    const double merge_ratio = merged_mae / trained_mae;
    std::printf(
        "st_feedback: 4-shard merged MAE %.1f (%.3fx of unmerged), engine feedback %.0f ops/sec\n",
        merged_mae, merge_ratio,
        static_cast<double>(train_queries) / seconds);
    if (merge_ratio > 1.10) {
      std::printf("st_feedback: FAIL merge gate (%.3fx > 1.10x)\n",
                  merge_ratio);
      failed = true;
    }
  }

  return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
