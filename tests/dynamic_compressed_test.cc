#include "src/histogram/dynamic_compressed.h"

#include <gtest/gtest.h>

#include "src/data/cluster_generator.h"
#include "src/data/mailorder_generator.h"
#include "src/data/update_stream.h"
#include "src/histogram/driver.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

DynamicCompressedConfig SmallConfig(std::int64_t buckets = 8) {
  DynamicCompressedConfig config;
  config.buckets = buckets;
  return config;
}

TEST(DynamicCompressedTest, LoadingPhaseIsExact) {
  DynamicCompressedHistogram h(SmallConfig(8));
  FrequencyVector truth(100);
  for (const std::int64_t v : {5, 5, 20, 31, 31, 31, 47}) {
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_TRUE(h.InLoadingPhase());  // only 4 distinct so far
  EXPECT_NEAR(KsStatistic(truth, h.Model()), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 7.0);
}

TEST(DynamicCompressedTest, LoadingEndsAtDistinctBudget) {
  DynamicCompressedHistogram h(SmallConfig(4));
  for (const std::int64_t v : {10, 20, 30}) h.Insert(v);
  EXPECT_TRUE(h.InLoadingPhase());
  h.Insert(40);
  EXPECT_FALSE(h.InLoadingPhase());
  EXPECT_EQ(h.Model().NumBuckets(), 4u);
}

TEST(DynamicCompressedTest, CountsLandInCorrectBuckets) {
  DynamicCompressedHistogram h(SmallConfig(4));
  for (const std::int64_t v : {10, 20, 30, 40}) h.Insert(v);
  // Bucket ranges are [10,20) [20,30) [30,40) [40,41).
  h.Insert(15);
  h.Insert(25);
  h.Insert(25);
  const auto model = h.Model();
  EXPECT_DOUBLE_EQ(model.BucketCount(0), 2.0);  // 10 + 15
  EXPECT_DOUBLE_EQ(model.BucketCount(1), 3.0);  // 20 + 25 + 25
  EXPECT_DOUBLE_EQ(model.BucketCount(2), 1.0);
  EXPECT_DOUBLE_EQ(model.BucketCount(3), 1.0);
}

TEST(DynamicCompressedTest, ExtendsRangeForOutOfBoundsInserts) {
  DynamicCompressedHistogram h(SmallConfig(4));
  for (const std::int64_t v : {10, 20, 30, 40}) h.Insert(v);
  h.Insert(2);   // below the leftmost border
  h.Insert(90);  // beyond the right edge
  const auto model = h.Model();
  EXPECT_DOUBLE_EQ(model.MinBorder(), 2.0);
  EXPECT_DOUBLE_EQ(model.MaxBorder(), 91.0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 6.0);
}

TEST(DynamicCompressedTest, SkewTriggersRepartition) {
  DynamicCompressedHistogram h(SmallConfig(8));
  Rng rng(1);
  // Hammer one narrow region; the chi-square test must eventually fire.
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  for (int i = 0; i < 5'000; ++i) h.Insert(rng.UniformInt(40, 45));
  EXPECT_GT(h.RepartitionCount(), 0);
}

TEST(DynamicCompressedTest, RepartitionEqualizesRegularCounts) {
  DynamicCompressedHistogram h(SmallConfig(8));
  Rng rng(2);
  for (int v = 0; v < 8; ++v) h.Insert(v * 100);
  for (int i = 0; i < 20'000; ++i) {
    h.Insert(rng.UniformInt(0, 700));
  }
  // After heavy uniform-ish traffic the last repartition should leave
  // regular counts within a reasonable band of each other.
  const auto model = h.Model();
  double min_count = 1e300, max_count = 0.0;
  for (std::size_t b = 0; b < model.NumBuckets(); ++b) {
    if (model.buckets()[b].singular) continue;
    min_count = std::min(min_count, model.BucketCount(b));
    max_count = std::max(max_count, model.BucketCount(b));
  }
  EXPECT_LT(max_count, 5.0 * (min_count + 1.0));
}

TEST(DynamicCompressedTest, HeavyValuePromotedToSingular) {
  DynamicCompressedHistogram h(SmallConfig(8));
  Rng rng(3);
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  // One value carries half the stream: must end in a singleton bucket.
  for (int i = 0; i < 10'000; ++i) {
    h.Insert(rng.Bernoulli(0.5) ? 37 : rng.UniformInt(0, 70));
  }
  EXPECT_GT(h.SingularCount(), 0);
  const auto model = h.Model();
  // The singular bucket at 37 answers the point query almost exactly.
  EXPECT_NEAR(model.EstimatePoint(37) / h.TotalCount(), 0.5, 0.05);
}

TEST(DynamicCompressedTest, SingularDemotedWhenMassFades) {
  DynamicCompressedHistogram h(SmallConfig(8));
  Rng rng(4);
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  for (int i = 0; i < 4'000; ++i) {
    h.Insert(rng.Bernoulli(0.5) ? 37 : rng.UniformInt(0, 70));
  }
  ASSERT_GT(h.SingularCount(), 0);
  // Now delete the hot value's mass and flood elsewhere.
  for (int i = 0; i < 1'900; ++i) h.Delete(37, 2'000 - i);
  for (int i = 0; i < 20'000; ++i) h.Insert(rng.UniformInt(0, 70));
  EXPECT_EQ(h.SingularCount(), 0);
}

TEST(DynamicCompressedTest, DeletesDecrementTotals) {
  DynamicCompressedHistogram h(SmallConfig(4));
  FrequencyVector truth(100);
  UpdateStream stream;
  for (const std::int64_t v : {10, 20, 30, 40, 25, 25}) {
    stream.push_back(UpdateOp::Insert(v));
  }
  stream.push_back(UpdateOp::Delete(25));
  stream.push_back(UpdateOp::Delete(10));
  Replay(stream, &h, &truth);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 4.0);
  EXPECT_DOUBLE_EQ(h.Model().TotalCount(), 4.0);
}

TEST(DynamicCompressedTest, DeleteSpillsToClosestBucket) {
  DynamicCompressedHistogram h(SmallConfig(4));
  for (const std::int64_t v : {10, 20, 30, 40}) h.Insert(v);
  // Empty bucket [20,30) by deleting its only point, then delete "from" it
  // again: the point must come from a neighbor, not crash.
  h.Delete(20, 1);
  h.Delete(22, 0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 2.0);
}

TEST(DynamicCompressedTest, TracksEvolvingDistributionOnRealisticStream) {
  ClusterDataConfig data_config;
  data_config.num_points = 30'000;
  data_config.domain_size = 1'001;
  data_config.num_clusters = 100;
  data_config.seed = 5;
  Rng rng(6);
  const auto stream =
      MakeRandomInsertStream(GenerateClusterData(data_config), rng);

  DynamicCompressedHistogram h(SmallConfig(64));
  FrequencyVector truth(data_config.domain_size);
  Replay(stream, &h, &truth);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 30'000.0);
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.1);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(DynamicCompressedTest, SpikyDataNeverOverflowsBucketBudget) {
  // Regression: on spiky (mail-order-like) data, repartitioning used to
  // grant every low-mass region its floor bucket *and* the dominant region
  // its full proportional share, overflowing the bucket budget and dying
  // on the rebuilt-size DH_CHECK. Many singulars fragmenting the axis is
  // the trigger.
  for (const std::int64_t buckets : {15, 31, 63, 127}) {
    DynamicCompressedHistogram h({.buckets = buckets});
    Rng rng(42);
    for (int i = 0; i < 30'000; ++i) {
      // 20 heavy spikes over a sparse background.
      const std::int64_t v = rng.Bernoulli(0.7)
                                 ? (rng.UniformInt(0, 19)) * 25 + 3
                                 : rng.UniformInt(0, 500);
      h.Insert(v);
    }
    EXPECT_LE(static_cast<std::int64_t>(h.Model().NumBuckets()), buckets);
    EXPECT_DOUBLE_EQ(h.TotalCount(), 30'000.0);
  }
}

TEST(DynamicCompressedTest, MailOrderTraceSurvivesAllBudgets) {
  // The exact workload that exposed the overflow (bench fig19).
  const auto records = MakeMailOrderData(3);
  for (const std::int64_t buckets : {31, 127, 511}) {
    DynamicCompressedHistogram h({.buckets = buckets});
    for (const std::int64_t v : records) h.Insert(v);
    EXPECT_LE(static_cast<std::int64_t>(h.Model().NumBuckets()), buckets);
  }
}

TEST(DynamicCompressedTest, WeightedInsertsMatchRepeatedInsertsInMass) {
  Rng rng(31);
  DynamicCompressedHistogram weighted(SmallConfig(16));
  DynamicCompressedHistogram repeated(SmallConfig(16));
  double total = 0.0;
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 400);
    const auto count = static_cast<std::int64_t>(1 + rng.UniformInt(8));
    weighted.InsertN(v, count);
    for (std::int64_t c = 0; c < count; ++c) repeated.Insert(v);
    total += static_cast<double>(count);
  }
  EXPECT_DOUBLE_EQ(weighted.TotalCount(), total);
  EXPECT_DOUBLE_EQ(repeated.TotalCount(), total);
  EXPECT_TRUE(testing::ModelIsValid(weighted.Model()));
}

TEST(DynamicCompressedTest, WeightedDeletesConserveMassExactly) {
  Rng rng(33);
  DynamicCompressedHistogram h(SmallConfig(16));
  std::vector<std::int64_t> live;
  for (int i = 0; i < 5'000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 300);
    h.Insert(v);
    live.push_back(v);
  }
  // Delete in weighted groups (mixing fast path and spill fallback).
  double expect = 5'000.0;
  while (live.size() > 500) {
    const std::int64_t v = live.back();
    std::int64_t count = 0;
    while (!live.empty() && live.back() == v) {
      live.pop_back();
      ++count;
    }
    // Also group several distinct trailing values into one DeleteN each.
    h.DeleteN(v, count);
    expect -= static_cast<double>(count);
    EXPECT_DOUBLE_EQ(h.TotalCount(), expect);
  }
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(DynamicCompressedTest, DeleteSpillsToNearestBucketWithMass) {
  // Build a histogram whose middle region is drained below one point, then
  // delete there: the outward search must take the point from the closest
  // bucket that still holds a whole point, conserving total mass.
  DynamicCompressedHistogram h(SmallConfig(8));
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);  // loading: borders at 10s
  for (int i = 0; i < 100; ++i) h.Insert(5);
  for (int i = 0; i < 100; ++i) h.Insert(75);
  const double before = h.TotalCount();
  // Value 40's bucket holds ~1 point; repeated deletes force spills.
  for (int i = 0; i < 50; ++i) h.Delete(40, 1);
  EXPECT_DOUBLE_EQ(h.TotalCount(), before - 50.0);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(DynamicCompressedTest, WeightedOpsDuringLoadingPhase) {
  DynamicCompressedHistogram h(SmallConfig(8));
  h.InsertN(100, 40);
  EXPECT_TRUE(h.InLoadingPhase());
  h.DeleteN(100, 15);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 25.0);
  for (int v = 0; v < 8; ++v) h.InsertN(v, 3);
  EXPECT_FALSE(h.InLoadingPhase());
  EXPECT_DOUBLE_EQ(h.TotalCount(), 49.0);
}

TEST(DynamicCompressedTest, AlphaMinZeroFreezesBorders) {
  DynamicCompressedConfig config = SmallConfig(8);
  config.alpha_min = 0.0;  // §3: "setting alpha_min to 0 would freeze"
  DynamicCompressedHistogram h(config);
  Rng rng(7);
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  for (int i = 0; i < 5'000; ++i) h.Insert(rng.UniformInt(40, 45));
  EXPECT_EQ(h.RepartitionCount(), 0);
}

// The replay stream of the bit-identity pin: single and weighted deletes
// while loading, the §7.3.1 mix (25% deletes of live tuples), then
// weighted inserts, single deletes and groups of deletes that drain a
// value's bucket and spill outward to the nearest buckets with mass (§7.3).
void PinDeletes(DynamicCompressedHistogram& h) {
  for (std::int64_t v = 0; v < 8; ++v) {
    h.InsertN(100 * v, 4);
    h.Delete(100 * v, 1);
    if (v % 2 == 0) h.DeleteN(100 * v, 2);
  }
  EXPECT_TRUE(h.InLoadingPhase());
  Rng rng(41);
  const auto values = GenerateClusterData({.num_points = 6'000,
                                           .domain_size = 1'001,
                                           .num_clusters = 60,
                                           .seed = 42});
  for (const UpdateOp& op : MakeMixedStream(values, 0.25, rng)) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      h.Insert(op.value);
    } else {
      h.Delete(op.value, 1);
    }
  }
  for (int i = 0; i < 600; ++i) {
    const std::int64_t v = rng.UniformInt(0, 1'000);
    if (i % 50 == 0) {
      h.DeleteN(v, 120);
    } else if (i % 2 == 0) {
      h.InsertN(v, static_cast<std::int64_t>(1 + rng.UniformInt(4)));
    } else {
      h.Delete(v, 1);
    }
  }
}

TEST(DynamicCompressedTest, SeededStreamsReplayBitIdentically) {
  // Pinned outputs of the delete paths: the loading phase's exact counts,
  // the per-point §7.3 spill and the weighted fast path, each followed by
  // the chi-square check. A change to any of them moves a line.
  struct PinCase {
    std::int64_t buckets;
    std::uint64_t digest;
    std::int64_t repartitions;
  };
  const PinCase cases[] = {
      {17, 0x26891bf03c927a90ull, 17},
      {33, 0x717c09f809e3784dull, 19},
      {64, 0x2a4dd8feb2f35fbfull, 21},
  };
  for (const PinCase& c : cases) {
    DynamicCompressedHistogram h(SmallConfig(c.buckets));
    PinDeletes(h);
    SCOPED_TRACE(::testing::Message()
                 << c.buckets << " buckets: digest 0x" << std::hex
                 << testing::ModelDigest(h.Model()) << std::dec
                 << ", repartitions " << h.RepartitionCount());
    EXPECT_EQ(testing::ModelDigest(h.Model()), c.digest);
    EXPECT_EQ(h.RepartitionCount(), c.repartitions);
  }
}

}  // namespace
}  // namespace dynhist
