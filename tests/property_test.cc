// Parameterized property suites: invariants that must hold for every
// histogram implementation across seeds and workload shapes (TEST_P
// sweeps). These are the library's safety net against maintenance bugs
// that single-example tests miss.

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/dynhist.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

constexpr std::int64_t kDomain = 1'001;

enum class Algo { kDc, kDvo, kDado, kAc, kBirch };

std::string AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kDc:
      return "DC";
    case Algo::kDvo:
      return "DVO";
    case Algo::kDado:
      return "DADO";
    case Algo::kAc:
      return "AC";
    case Algo::kBirch:
      return "Birch";
  }
  return "?";
}

std::unique_ptr<Histogram> MakeHistogram(Algo algo, std::uint64_t seed) {
  constexpr double kMemory = 384.0;
  switch (algo) {
    case Algo::kDc:
      return std::make_unique<DynamicCompressedHistogram>(
          DynamicCompressedConfig{
              .buckets = BucketBudget(kMemory, BucketLayout::kBorderCount)});
    case Algo::kDvo:
      return std::make_unique<DynamicVOptHistogram>(DynamicVOptConfig{
          .buckets = BucketBudget(kMemory, BucketLayout::kBorderTwoCounts),
          .policy = DeviationPolicy::kSquared});
    case Algo::kDado:
      return std::make_unique<DynamicVOptHistogram>(DynamicVOptConfig{
          .buckets = BucketBudget(kMemory, BucketLayout::kBorderTwoCounts),
          .policy = DeviationPolicy::kAbsolute});
    case Algo::kAc:
      return std::make_unique<ApproximateCompressedHistogram>(
          MakeApproximateCompressedConfig(kMemory, 20.0, seed));
    case Algo::kBirch:
      return std::make_unique<Birch1DHistogram>(
          Birch1DConfig{.max_clusters = BirchClusterBudget(kMemory)});
  }
  return nullptr;
}

enum class StreamShape { kRandom, kSorted, kMixed, kInsertDeleteWave };

std::string ShapeName(StreamShape shape) {
  switch (shape) {
    case StreamShape::kRandom:
      return "Random";
    case StreamShape::kSorted:
      return "Sorted";
    case StreamShape::kMixed:
      return "Mixed";
    case StreamShape::kInsertDeleteWave:
      return "Wave";
  }
  return "?";
}

UpdateStream MakeStream(StreamShape shape, std::uint64_t seed) {
  ClusterDataConfig config;
  config.num_points = 8'000;
  config.domain_size = kDomain;
  config.num_clusters = 60;
  config.seed = seed;
  auto values = GenerateClusterData(config);
  Rng rng(seed + 1'000);
  switch (shape) {
    case StreamShape::kRandom:
      return MakeRandomInsertStream(std::move(values), rng);
    case StreamShape::kSorted:
      return MakeSortedInsertStream(std::move(values));
    case StreamShape::kMixed:
      return MakeMixedStream(std::move(values), 0.25, rng);
    case StreamShape::kInsertDeleteWave:
      return MakeInsertsThenRandomDeletes(std::move(values), 0.7, rng);
  }
  return {};
}

class HistogramPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<Algo, StreamShape, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramPropertyTest,
    ::testing::Combine(::testing::Values(Algo::kDc, Algo::kDvo, Algo::kDado,
                                         Algo::kAc, Algo::kBirch),
                       ::testing::Values(StreamShape::kRandom,
                                         StreamShape::kSorted,
                                         StreamShape::kMixed,
                                         StreamShape::kInsertDeleteWave),
                       ::testing::Values(0u, 1u, 2u)),
    [](const auto& info) {
      return AlgoName(std::get<0>(info.param)) +
             ShapeName(std::get<1>(info.param)) +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(HistogramPropertyTest, ModelStaysValidAndBounded) {
  const auto [algo, shape, seed] = GetParam();
  auto h = MakeHistogram(algo, seed);
  FrequencyVector truth(kDomain);
  const auto stream = MakeStream(shape, seed);
  ReplayWithCheckpoints(
      stream, h.get(), &truth, 8,
      [&](double fraction, const Histogram& hist,
          const FrequencyVector& data) {
        const HistogramModel model = hist.Model();
        EXPECT_TRUE(testing::ModelIsValid(model))
            << hist.Name() << " at fraction " << fraction;
        const double ks = KsStatistic(data, model);
        EXPECT_GE(ks, 0.0);
        EXPECT_LE(ks, 1.0);
      });
}

TEST_P(HistogramPropertyTest, TotalCountTracksTruth) {
  const auto [algo, shape, seed] = GetParam();
  auto h = MakeHistogram(algo, seed);
  FrequencyVector truth(kDomain);
  Replay(MakeStream(shape, seed), h.get(), &truth);
  // All implementations count every update exactly (AC/DC/DADO maintain an
  // explicit N); allow a whisker for clamped deletions in degenerate runs.
  EXPECT_NEAR(h->TotalCount(), static_cast<double>(truth.TotalCount()),
              1.0 + 0.01 * static_cast<double>(truth.TotalCount()));
}

TEST_P(HistogramPropertyTest, FinalAccuracyIsReasonable) {
  const auto [algo, shape, seed] = GetParam();
  // Birch is expected to be bad (that is the paper's point); DC suffers on
  // sorted streams (§7.2). Keep a loose cap that still catches blowups.
  const double cap = (algo == Algo::kBirch) ? 0.7 : 0.4;
  auto h = MakeHistogram(algo, seed);
  FrequencyVector truth(kDomain);
  Replay(MakeStream(shape, seed), h.get(), &truth);
  if (truth.TotalCount() == 0) return;
  EXPECT_LT(KsStatistic(truth, h->Model()), cap)
      << AlgoName(algo) << "/" << ShapeName(shape) << "/" << seed;
}

TEST_P(HistogramPropertyTest, EstimatesNeverNegative) {
  const auto [algo, shape, seed] = GetParam();
  auto h = MakeHistogram(algo, seed);
  FrequencyVector truth(kDomain);
  Replay(MakeStream(shape, seed), h.get(), &truth);
  const auto model = h->Model();
  Rng rng(seed + 99);
  for (const auto& q : MakeUniformQueries(kDomain, 100, rng)) {
    EXPECT_GE(model.EstimateRange(q.lo, q.hi), -1e-9);
  }
}

// ---------------------------------------------------------------------------
// Engine sync-vs-async oracle: the async publish pipeline must be invisible
// in the data. One seeded mixed insert/delete/refresh workload is run
// through a synchronous engine (the serial oracle) and a manually-pumped
// async engine with seeded irregular pump points; after the final drain the
// two must hold bit-identical snapshots and both must conserve mass
// exactly. batch_size 1 pins the shard trajectories so "identical" means
// identical bits, not identical-within-tolerance (publishes flush shard
// buffers, so with batching the merge *timing* would perturb coalescing
// boundaries and the comparison would no longer be exact by construction).

class EngineSyncAsyncOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSyncAsyncOracleTest,
                         ::testing::Range<std::uint64_t>(0, 20),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(EngineSyncAsyncOracleTest, PostDrainSnapshotsBitIdentical) {
  const std::uint64_t seed = GetParam();
  constexpr char kKey[] = "oracle.key";

  engine::EngineOptions async_options;
  async_options.shards = 4;
  async_options.batch_size = 1;
  async_options.snapshot_every = 256;
  async_options.async_publish = true;
  async_options.merge_workers = 0;  // manual pump: deterministic schedule
  engine::EngineOptions sync_options = async_options;
  sync_options.async_publish = false;

  engine::HistogramEngine async_engine(async_options);
  engine::HistogramEngine sync_engine(sync_options);

  ClusterDataConfig config;
  config.num_points = 6'000;
  config.domain_size = kDomain;
  config.num_clusters = 40;
  config.seed = seed;
  Rng rng(seed + 10'000);
  const UpdateStream stream =
      MakeMixedStream(GenerateClusterData(config), 0.3, rng);

  // Seeded pump/refresh schedule: drains and explicit refreshes hit both
  // engines at arbitrary stream positions.
  Rng schedule(seed + 20'000);
  FrequencyVector truth(kDomain);
  std::size_t i = 0;
  for (const UpdateOp& op : stream) {
    testing::ApplyToEngine(async_engine, kKey, op);
    testing::ApplyToEngine(sync_engine, kKey, op);
    if (op.kind == UpdateOp::Kind::kInsert) {
      truth.Insert(op.value);
    } else {
      truth.Delete(op.value);
    }
    ++i;
    if (schedule.Bernoulli(1.0 / 701.0)) async_engine.PumpPublishes();
    if (schedule.Bernoulli(1.0 / 1709.0)) {
      async_engine.RefreshSnapshot(kKey);
      sync_engine.RefreshSnapshot(kKey);
    }
  }

  async_engine.DrainPublishes();
  async_engine.RefreshAll();
  sync_engine.RefreshAll();

  const engine::EngineSnapshot a = async_engine.Snapshot(kKey);
  const engine::EngineSnapshot s = sync_engine.Snapshot(kKey);
  ASSERT_EQ(a.watermark(), static_cast<std::uint64_t>(stream.size()));
  ASSERT_EQ(s.watermark(), static_cast<std::uint64_t>(stream.size()));
  EXPECT_TRUE(testing::ModelsBitIdentical(a.model(), s.model()))
      << "seed " << seed;

  // Exact mass conservation through buffers, shards, queue, and merges.
  const auto expected = static_cast<double>(truth.TotalCount());
  EXPECT_DOUBLE_EQ(async_engine.LiveTotalCount(kKey), expected);
  EXPECT_DOUBLE_EQ(sync_engine.LiveTotalCount(kKey), expected);
  EXPECT_NEAR(a.TotalCount(), expected, 1e-6 * (1.0 + expected));
}

// ---------------------------------------------------------------------------
// Feedback convergence oracle: on a stationary workload, an ST-FEEDBACK
// histogram must learn — its windowed mean training error (the pre-update
// |actual - estimate| that ApplyFeedback returns) must be non-increasing
// across geometrically growing checkpoints. Raw point-in-time error
// snapshots are NOT monotone (restructure transients spike them); the
// windowed mean over [prev checkpoint, checkpoint) is the statistic that
// is, with 2-30x margins across seeds.

class StFeedbackConvergenceOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, StFeedbackConvergenceOracleTest,
                         ::testing::Range<std::uint64_t>(0, 20),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(StFeedbackConvergenceOracleTest, WindowedTrainingErrorNonIncreasing) {
  const std::uint64_t seed = GetParam();
  constexpr std::int64_t kFbDomain = 2'000;

  // A stationary skewed relation and a stationary skewed query mix.
  Rng data_rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(kFbDomain), 1.2);
  FrequencyVector truth(kFbDomain);
  for (int i = 0; i < 60'000; ++i) {
    truth.Insert(static_cast<std::int64_t>(zipf.Sample(data_rng)));
  }

  StFeedbackConfig config;
  config.buckets = 48;
  config.domain_lo = 0;
  config.domain_hi = kFbDomain - 1;
  StFeedbackHistogram h(config);

  Rng query_rng(seed + 555);
  const std::vector<int> checkpoints = {100, 400, 1'600, 6'400};
  double prev_window_mean = std::numeric_limits<double>::infinity();
  int fed = 0;
  for (const int checkpoint : checkpoints) {
    double window_error_sum = 0.0;
    const int window = checkpoint - fed;
    for (; fed < checkpoint; ++fed) {
      const auto center =
          static_cast<std::int64_t>(zipf.Sample(query_rng));
      const std::int64_t width = query_rng.UniformInt(1, 100);
      const std::int64_t lo = std::max<std::int64_t>(0, center - width / 2);
      const std::int64_t hi = std::min<std::int64_t>(kFbDomain - 1, lo + width);
      window_error_sum += h.ApplyFeedback(
          lo, hi, static_cast<double>(truth.RangeCount(lo, hi)));
    }
    const double window_mean = window_error_sum / window;
    EXPECT_LE(window_mean, prev_window_mean)
        << "seed " << seed << " at checkpoint " << checkpoint;
    prev_window_mean = window_mean;
  }
}

// Same sync-vs-async bit-identity oracle as above, for the feedback path:
// RecordFeedback rides the shard batch buffers, applies op by op, and is
// broadcast with 1/shards scaling — none of which may depend on when the
// async merges run. batch_size 1 again pins the shard trajectories.

class FeedbackSyncAsyncOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FeedbackSyncAsyncOracleTest,
                         ::testing::Range<std::uint64_t>(0, 20),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(FeedbackSyncAsyncOracleTest, PostDrainSnapshotsBitIdentical) {
  const std::uint64_t seed = GetParam();
  constexpr char kKey[] = "stf.oracle.key";
  constexpr std::int64_t kFbDomain = 2'000;

  engine::EngineOptions async_options;
  async_options.shards = 4;
  async_options.batch_size = 1;
  async_options.snapshot_every = 256;
  async_options.async_publish = true;
  async_options.merge_workers = 0;
  async_options.kind = engine::ShardHistogramKind::kStFeedback;
  async_options.st_feedback.domain_lo = 0;
  async_options.st_feedback.domain_hi = kFbDomain - 1;
  engine::EngineOptions sync_options = async_options;
  sync_options.async_publish = false;

  engine::HistogramEngine async_engine(async_options);
  engine::HistogramEngine sync_engine(sync_options);

  // Mixed data + feedback stream against a stationary zipf relation.
  Rng rng(seed + 30'000);
  const ZipfDistribution zipf(static_cast<std::size_t>(kFbDomain), 1.0);
  FrequencyVector truth(kFbDomain);
  for (int i = 0; i < 20'000; ++i) {
    truth.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  std::vector<UpdateOp> stream;
  stream.reserve(4'000);
  for (int i = 0; i < 4'000; ++i) {
    if (rng.Bernoulli(0.4)) {
      stream.push_back(
          UpdateOp::Insert(static_cast<std::int64_t>(zipf.Sample(rng))));
    } else {
      const auto center = static_cast<std::int64_t>(zipf.Sample(rng));
      const std::int64_t width = rng.UniformInt(1, 100);
      const std::int64_t lo = std::max<std::int64_t>(0, center - width / 2);
      const std::int64_t hi = std::min<std::int64_t>(kFbDomain - 1, lo + width);
      stream.push_back(UpdateOp::Feedback(
          lo, hi, static_cast<double>(truth.RangeCount(lo, hi))));
    }
  }

  Rng schedule(seed + 40'000);
  for (const UpdateOp& op : stream) {
    testing::ApplyToEngine(async_engine, kKey, op);
    testing::ApplyToEngine(sync_engine, kKey, op);
    if (schedule.Bernoulli(1.0 / 701.0)) async_engine.PumpPublishes();
    if (schedule.Bernoulli(1.0 / 1709.0)) {
      async_engine.RefreshSnapshot(kKey);
      sync_engine.RefreshSnapshot(kKey);
    }
  }

  async_engine.DrainPublishes();
  async_engine.RefreshAll();
  sync_engine.RefreshAll();

  const engine::EngineSnapshot a = async_engine.Snapshot(kKey);
  const engine::EngineSnapshot s = sync_engine.Snapshot(kKey);
  ASSERT_EQ(a.watermark(), static_cast<std::uint64_t>(stream.size()));
  ASSERT_EQ(s.watermark(), static_cast<std::uint64_t>(stream.size()));
  EXPECT_TRUE(testing::ModelsBitIdentical(a.model(), s.model()))
      << "seed " << seed;
  EXPECT_EQ(async_engine.Stats(kKey).feedbacks, sync_engine.Stats(kKey).feedbacks);
}

}  // namespace
}  // namespace dynhist
