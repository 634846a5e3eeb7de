#include "src/histogram/approximate_compressed.h"

#include <gtest/gtest.h>

#include "src/data/cluster_generator.h"
#include "src/data/update_stream.h"
#include "src/histogram/budget.h"
#include "src/histogram/driver.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

ApproximateCompressedConfig SmallConfig() {
  ApproximateCompressedConfig config;
  config.buckets = 8;
  config.sample_capacity = 256;
  config.seed = 1;
  return config;
}

TEST(ApproximateCompressedTest, PaperSizingHelper) {
  // §7: AC gets disk space 20x the main memory; 1 KB memory -> 5120
  // 4-byte sample values and 127 buckets.
  const auto config = MakeApproximateCompressedConfig(1024.0, 20.0, 0);
  EXPECT_EQ(config.buckets, 127);
  EXPECT_EQ(config.sample_capacity, 5'120u);
}

TEST(ApproximateCompressedTest, TracksTotalsThroughInserts) {
  ApproximateCompressedHistogram h(SmallConfig());
  Rng rng(2);
  for (int i = 0; i < 1'000; ++i) h.Insert(rng.UniformInt(0, 99));
  EXPECT_DOUBLE_EQ(h.TotalCount(), 1'000.0);
  // The model's mass is the scaled sample: close to N by construction.
  EXPECT_NEAR(h.Model().TotalCount(), 1'000.0, 50.0);
}

TEST(ApproximateCompressedTest, RecomputesOnSampleChanges) {
  ApproximateCompressedHistogram h(SmallConfig());
  Rng rng(3);
  for (int i = 0; i < 2'000; ++i) h.Insert(rng.UniformInt(0, 99));
  // gamma = -1: every sample modification recomputes; after the filling
  // phase the sample mutates on a shrinking fraction of inserts.
  EXPECT_GT(h.RecomputeCount(), 300);
  EXPECT_LT(h.RecomputeCount(), 2'001);
}

TEST(ApproximateCompressedTest, ApproximatesUniformDataWell) {
  ApproximateCompressedHistogram h(SmallConfig());
  FrequencyVector truth(200);
  Rng rng(4);
  for (int i = 0; i < 5'000; ++i) {
    const auto v = rng.UniformInt(0, 199);
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.15);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(ApproximateCompressedTest, DeletionsShrinkTheBackingSample) {
  // Fig. 17's mechanism: deletions reduce the sample.
  ApproximateCompressedHistogram h(SmallConfig());
  FrequencyVector truth(100);
  UpdateStream stream;
  std::vector<std::int64_t> values;
  Rng rng(5);
  for (int i = 0; i < 2'000; ++i) values.push_back(rng.UniformInt(0, 99));
  const auto with_deletes =
      MakeInsertsThenRandomDeletes(values, 0.8, rng);
  Replay(with_deletes, &h, &truth);
  EXPECT_LT(h.SampleSize(), 200u);  // sample decimated alongside the data
  EXPECT_NEAR(h.TotalCount(), 400.0, 1e-6);
}

TEST(ApproximateCompressedTest, SingularBucketsForHeavyValues) {
  ApproximateCompressedHistogram h(SmallConfig());
  Rng rng(8);
  for (int i = 0; i < 4'000; ++i) {
    h.Insert(rng.Bernoulli(0.5) ? 42 : rng.UniformInt(0, 99));
  }
  bool has_singular_42 = false;
  const auto model = h.Model();
  for (std::size_t b = 0; b < model.NumBuckets(); ++b) {
    if (model.buckets()[b].singular &&
        model.BucketPieces(b)[0].left == 42.0) {
      has_singular_42 = true;
    }
  }
  EXPECT_TRUE(has_singular_42);
}

TEST(ApproximateCompressedTest, SeededStreamsReplayBitIdentically) {
  // Pinned outputs of the paper's eager maintenance: the §7.3.1 mix (25%
  // deletes of live tuples) replayed with live counts, so deletes reach
  // the backing sample. A change to when AC recomputes, or to what a
  // recompute builds, moves a line.
  struct PinCase {
    double memory_bytes;
    std::uint64_t digest;
    std::int64_t recomputes;
  };
  const PinCase cases[] = {
      {256.0, 0x26abab8925f3745eull, 5'200},
      {1'024.0, 0x76158c8f54599dc7ull, 9'693},
  };
  const auto values = GenerateClusterData({.num_points = 8'000,
                                           .domain_size = 1'001,
                                           .num_clusters = 60,
                                           .seed = 43});
  for (const PinCase& c : cases) {
    ApproximateCompressedHistogram h(
        MakeApproximateCompressedConfig(c.memory_bytes, 20.0, 44));
    FrequencyVector truth(1'001);
    Rng rng(45);
    Replay(MakeMixedStream(values, 0.25, rng), &h, &truth);
    SCOPED_TRACE(::testing::Message()
                 << c.memory_bytes << " B: digest 0x" << std::hex
                 << testing::ModelDigest(h.Model()) << std::dec
                 << ", recomputes " << h.RecomputeCount());
    EXPECT_EQ(testing::ModelDigest(h.Model()), c.digest);
    EXPECT_EQ(h.RecomputeCount(), c.recomputes);
  }
}

}  // namespace
}  // namespace dynhist
