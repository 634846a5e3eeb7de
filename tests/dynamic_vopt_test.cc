#include "src/histogram/dynamic_vopt.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/data/cluster_generator.h"
#include "src/data/update_stream.h"
#include "src/histogram/driver.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

DynamicVOptConfig Dado(std::int64_t buckets) {
  DynamicVOptConfig config;
  config.buckets = buckets;
  config.policy = DeviationPolicy::kAbsolute;
  return config;
}

DynamicVOptConfig Dvo(std::int64_t buckets) {
  DynamicVOptConfig config;
  config.buckets = buckets;
  config.policy = DeviationPolicy::kSquared;
  return config;
}

TEST(DynamicVOptTest, NamesFollowPolicy) {
  EXPECT_EQ(DynamicVOptHistogram(Dado(4)).Name(), "DADO");
  EXPECT_EQ(DynamicVOptHistogram(Dvo(4)).Name(), "DVO");
}

TEST(DynamicVOptTest, LoadingPhaseIsExact) {
  DynamicVOptHistogram h(Dado(8));
  FrequencyVector truth(100);
  for (const std::int64_t v : {5, 5, 20, 31, 31}) {
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_TRUE(h.InLoadingPhase());
  EXPECT_NEAR(KsStatistic(truth, h.Model()), 0.0, 1e-12);
}

TEST(DynamicVOptTest, BucketCountStableAfterLoading) {
  DynamicVOptHistogram h(Dado(8));
  Rng rng(1);
  for (int i = 0; i < 2'000; ++i) h.Insert(rng.UniformInt(0, 499));
  EXPECT_FALSE(h.InLoadingPhase());
  EXPECT_EQ(h.BucketCount(), 8u);
}

TEST(DynamicVOptTest, TotalCountConservedBySplitMerge) {
  DynamicVOptHistogram h(Dado(8));
  Rng rng(2);
  double inserted = 0.0;
  for (int i = 0; i < 5'000; ++i) {
    h.Insert(rng.Bernoulli(0.7) ? rng.UniformInt(0, 50)
                                : rng.UniformInt(0, 499));
    inserted += 1.0;
    ASSERT_NEAR(h.TotalCount(), inserted, 1e-6);
  }
  EXPECT_NEAR(h.Model().TotalCount(), inserted, 1e-6);
  EXPECT_GT(h.RepartitionCount(), 0);
}

TEST(DynamicVOptTest, ModelStaysStructurallyValid) {
  DynamicVOptHistogram h(Dado(12));
  Rng rng(3);
  for (int i = 0; i < 3'000; ++i) {
    h.Insert(rng.UniformInt(0, 999));
    if (i % 97 == 0) {
      EXPECT_TRUE(testing::ModelIsValid(h.Model()));
    }
  }
}

TEST(DynamicVOptTest, OutOfRangeInsertBorrowsAndMerges) {
  DynamicVOptHistogram h(Dado(4));
  for (const std::int64_t v : {100, 110, 120, 130}) h.Insert(v);
  EXPECT_EQ(h.BucketCount(), 4u);
  h.Insert(500);  // beyond the right edge
  EXPECT_EQ(h.BucketCount(), 4u);  // borrowed bucket paid back by a merge
  h.Insert(3);    // below the left edge
  EXPECT_EQ(h.BucketCount(), 4u);
  const auto model = h.Model();
  EXPECT_DOUBLE_EQ(model.MinBorder(), 3.0);
  EXPECT_DOUBLE_EQ(model.MaxBorder(), 501.0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 6.0);
}

TEST(DynamicVOptTest, SplitTargetsHighestRho) {
  // Theorem 4.1: after a repartition the former max-rho bucket has been
  // split (its rho drops to ~0). Drive one bucket's sub-counters far apart
  // and verify a reorganization happens.
  DynamicVOptHistogram h(Dado(6));
  for (const std::int64_t v : {0, 100, 200, 300, 400, 500}) h.Insert(v);
  const auto before = h.RepartitionCount();
  // All inserts land in the left half of bucket [100, 200).
  for (int i = 0; i < 200; ++i) h.Insert(101 + (i % 10));
  EXPECT_GT(h.RepartitionCount(), before);
  // The hot region should now be covered by narrower buckets: the model
  // must place a border inside [100, 200).
  bool border_inside = false;
  const HistogramModel model = h.Model();
  for (const auto& piece : model.pieces()) {
    if (piece.left > 100.0 && piece.left < 200.0) border_inside = true;
  }
  EXPECT_TRUE(border_inside);
}

TEST(DynamicVOptTest, RhoOfFreshSplitIsZero) {
  DynamicVOptHistogram h(Dado(6));
  Rng rng(5);
  for (int i = 0; i < 1'000; ++i) h.Insert(rng.UniformInt(0, 299));
  // Rho values are cached; every bucket's cached value must equal a fresh
  // computation and be non-negative.
  for (std::size_t i = 0; i < h.BucketCount(); ++i) {
    EXPECT_GE(h.BucketRhoForTest(i), 0.0);
  }
}

TEST(DynamicVOptTest, CapturesSpikeWithNarrowBucket) {
  // §7.1: DADO "can afford to create buckets with only one value in them".
  DynamicVOptHistogram h(Dado(8));
  Rng rng(6);
  for (int i = 0; i < 8'000; ++i) {
    h.Insert(rng.Bernoulli(0.5) ? 250 : rng.UniformInt(0, 499));
  }
  FrequencyVector truth(500);
  // Rebuild the truth for the estimate check.
  Rng rng2(6);
  for (int i = 0; i < 8'000; ++i) {
    truth.Insert(rng2.Bernoulli(0.5) ? 250 : rng2.UniformInt(0, 499));
  }
  const double est = h.Model().EstimatePoint(250);
  EXPECT_NEAR(est / h.TotalCount(), 0.5, 0.1);
}

TEST(DynamicVOptTest, DeleteDecrementsNearestCounter) {
  DynamicVOptHistogram h(Dado(4));
  for (const std::int64_t v : {10, 20, 30, 40}) h.Insert(v);
  h.Delete(10, 1);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 3.0);
  // Delete a value whose bucket is now empty: spills to the closest bucket.
  h.Delete(11, 0);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 2.0);
  EXPECT_GE(h.Model().TotalCount(), 0.0);
}

TEST(DynamicVOptTest, InsertDeleteRoundTripKeepsTotalsExact) {
  DynamicVOptHistogram h(Dado(8));
  FrequencyVector truth(200);
  Rng rng(7);
  UpdateStream stream = MakeMixedStream(
      GenerateClusterData({.num_points = 2'000,
                           .domain_size = 200,
                           .num_clusters = 20,
                           .seed = 8}),
      0.25, rng);
  Replay(stream, &h, &truth);
  EXPECT_NEAR(h.TotalCount(), static_cast<double>(truth.TotalCount()), 1e-6);
}

TEST(DynamicVOptTest, DadoBeatsDvoOnSkewedStream) {
  // §4.1 / Fig. 5-8: DADO is consistently at least as good as DVO. On a
  // single seed allow a margin, but DADO must not be drastically worse.
  ClusterDataConfig config;
  config.num_points = 40'000;
  config.domain_size = 2'001;
  config.num_clusters = 200;
  config.size_skew_z = 2.0;
  config.seed = 9;
  Rng rng(10);
  const auto stream =
      MakeRandomInsertStream(GenerateClusterData(config), rng);

  DynamicVOptHistogram dado(Dado(32));
  DynamicVOptHistogram dvo(Dvo(32));
  FrequencyVector truth1(config.domain_size), truth2(config.domain_size);
  Replay(stream, &dado, &truth1);
  Replay(stream, &dvo, &truth2);
  const double ks_dado = KsStatistic(truth1, dado.Model());
  const double ks_dvo = KsStatistic(truth2, dvo.Model());
  EXPECT_LT(ks_dado, ks_dvo + 0.02);
}

class SubBucketAblationTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(SubBuckets, SubBucketAblationTest,
                         ::testing::Values(2, 3, 4));

TEST_P(SubBucketAblationTest, AllSubBucketCountsWork) {
  DynamicVOptConfig config = Dado(10);
  config.sub_buckets = GetParam();
  DynamicVOptHistogram h(config);
  FrequencyVector truth(500);
  Rng rng(11);
  for (int i = 0; i < 4'000; ++i) {
    const auto v = rng.UniformInt(0, 499);
    h.Insert(v);
    truth.Insert(v);
  }
  EXPECT_NEAR(h.TotalCount(), 4'000.0, 1e-6);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.2);
}

TEST(DynamicVOptTest, TracksEvolvingDistribution) {
  ClusterDataConfig config;
  config.num_points = 30'000;
  config.domain_size = 1'001;
  config.num_clusters = 100;
  config.seed = 12;
  Rng rng(13);
  const auto stream =
      MakeRandomInsertStream(GenerateClusterData(config), rng);
  DynamicVOptHistogram h(Dado(43));  // ~0.5 KB
  FrequencyVector truth(config.domain_size);
  Replay(stream, &h, &truth);
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.05);
}

TEST(DynamicVOptTest, WeightedInsertsConserveMassAndQuality) {
  Rng rng(17);
  DynamicVOptHistogram h(Dado(32));
  FrequencyVector truth(501);
  for (int i = 0; i < 3'000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 500);
    const auto count = static_cast<std::int64_t>(1 + rng.UniformInt(6));
    h.InsertN(v, count);
    for (std::int64_t c = 0; c < count; ++c) truth.Insert(v);
  }
  EXPECT_DOUBLE_EQ(h.TotalCount(),
                   static_cast<double>(truth.TotalCount()));
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
  EXPECT_LT(KsStatistic(truth, h.Model()), 0.1);
}

TEST(DynamicVOptTest, WeightedInsertOutOfRangeGrowsSupport) {
  DynamicVOptHistogram h(Dado(8));
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  h.InsertN(500, 25);  // far right of the current support
  h.InsertN(-40, 10);  // far left
  EXPECT_DOUBLE_EQ(h.TotalCount(), 8.0 + 25.0 + 10.0);
  const HistogramModel model = h.Model();
  EXPECT_LE(model.MinBorder(), -40.0);
  EXPECT_GE(model.MaxBorder(), 501.0);
  EXPECT_TRUE(testing::ModelIsValid(model));
}

TEST(DynamicVOptTest, WeightedDeletesFastPathAndSpill) {
  DynamicVOptHistogram h(Dado(8));
  for (int v = 0; v < 8; ++v) h.Insert(v * 10);
  h.InsertN(35, 40);
  // Fast path: the value's own counter holds the whole group.
  h.DeleteN(35, 30);
  EXPECT_DOUBLE_EQ(h.TotalCount(), 8.0 + 10.0);
  // Spill: more deletes of 35 than its counter holds must drain neighbors
  // point by point. Once every counter is below one point, each delete
  // clamps to the largest fractional counter (pre-existing §7.3 semantics),
  // so the final mass may exceed the exact 3.0 by those fractions but never
  // undershoots it.
  h.DeleteN(35, 15);
  EXPECT_GE(h.TotalCount(), 3.0);
  EXPECT_LE(h.TotalCount(), 5.0);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

using testing::ModelDigest;

std::vector<std::int64_t> PinData(std::uint64_t seed) {
  return GenerateClusterData({.num_points = 6'000,
                              .domain_size = 1'001,
                              .num_clusters = 60,
                              .seed = seed});
}

// The replay streams of the bit-identity pin. Each exercises one branch of
// the split/merge selection.
void PinRandom(DynamicVOptHistogram& h) {
  Rng rng(31);
  for (const UpdateOp& op : MakeRandomInsertStream(PinData(30), rng)) {
    h.Insert(op.value);
  }
}

// Ascending values keep landing right of the support: the out-of-range
// borrow-and-merge path, interleaved with in-range repartitions.
void PinSorted(DynamicVOptHistogram& h) {
  for (const UpdateOp& op : MakeSortedInsertStream(PinData(32))) {
    h.Insert(op.value);
  }
}

// §7.3.1 mix (25% deletes of live tuples), then groups of deletes that
// drain a value's bucket and spill outward to the nearest buckets with mass
// (§7.3), mixed with weighted inserts.
void PinDeletes(DynamicVOptHistogram& h) {
  Rng rng(33);
  for (const UpdateOp& op : MakeMixedStream(PinData(34), 0.25, rng)) {
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

// Inserts below and above the current support, single and weighted,
// between in-range inserts.
void PinOutOfRange(DynamicVOptHistogram& h) {
  Rng rng(35);
  std::int64_t lo = 400;
  std::int64_t hi = 600;
  for (int i = 0; i < 8'000; ++i) {
    switch (i % 10) {
      case 3:
        lo -= 1 + static_cast<std::int64_t>(rng.UniformInt(3));
        h.Insert(lo);
        break;
      case 7:
        hi += 1 + static_cast<std::int64_t>(rng.UniformInt(3));
        h.Insert(hi);
        break;
      case 9:
        if (i % 20 == 9) {
          lo -= 2;
          h.InsertN(lo, 4);
        } else {
          hi += 2;
          h.InsertN(hi, 4);
        }
        break;
      default:
        h.Insert(rng.UniformInt(lo, hi));
    }
  }
}

struct PinCase {
  const char* stream;
  void (*replay)(DynamicVOptHistogram&);
  std::int64_t buckets;
  DeviationPolicy policy;
  int sub_buckets;
  std::uint64_t digest;
  std::int64_t repartitions;
};

TEST(DynamicVOptTest, SeededStreamsReplayBitIdentically) {
  // Pinned outputs of the Theorem 4.1 selection (largest-rho split,
  // smallest merged-rho pair, ties to the lowest index). Any change to the
  // selection order, its tie-breaking or the cached rho arithmetic moves a
  // digest; a faster selection must leave every line unchanged.
  constexpr auto kAbs = DeviationPolicy::kAbsolute;
  constexpr auto kSq = DeviationPolicy::kSquared;
  const PinCase cases[] = {
      {"random", PinRandom, 64, kAbs, 2, 0xe34bc32a95b2aa67ull, 838},
      {"random", PinRandom, 64, kAbs, 4, 0xbb6a22b6208382d1ull, 957},
      {"random", PinRandom, 64, kSq, 2, 0x506bbbe19432e059ull, 646},
      {"random", PinRandom, 64, kSq, 4, 0xd602f86f881806cbull, 1183},
      {"sorted", PinSorted, 50, kAbs, 2, 0x8d8537f1a5b23a3cull, 180},
      {"sorted", PinSorted, 50, kAbs, 4, 0x9ce9a45a2990cf69ull, 215},
      {"sorted", PinSorted, 50, kSq, 2, 0xe5601023d4f411c4ull, 185},
      {"sorted", PinSorted, 50, kSq, 4, 0xde5337c54ffa504ull, 243},
      {"deletes", PinDeletes, 33, kAbs, 2, 0x146eb444e1f4162eull, 674},
      {"deletes", PinDeletes, 33, kAbs, 4, 0x2d0fc299103bc9f9ull, 979},
      {"deletes", PinDeletes, 33, kSq, 2, 0x9388ed6f9bb03f0ull, 547},
      {"deletes", PinDeletes, 33, kSq, 4, 0x253daf0544a06311ull, 974},
      {"out-of-range", PinOutOfRange, 17, kAbs, 2, 0xbf1dcd15eb953caaull, 214},
      {"out-of-range", PinOutOfRange, 17, kAbs, 4, 0xc828e2389445a844ull, 306},
      {"out-of-range", PinOutOfRange, 17, kSq, 2, 0xd7154012734f2fa6ull, 387},
      {"out-of-range", PinOutOfRange, 17, kSq, 4, 0x98d8955e75015f65ull, 1903},
  };
  for (const PinCase& c : cases) {
    DynamicVOptConfig config;
    config.buckets = c.buckets;
    config.policy = c.policy;
    config.sub_buckets = c.sub_buckets;
    DynamicVOptHistogram h(config);
    c.replay(h);
    SCOPED_TRACE(::testing::Message()
                 << c.stream << " " << h.Name() << " sub_buckets "
                 << c.sub_buckets << ": digest 0x" << std::hex
                 << ModelDigest(h.Model()) << std::dec << ", repartitions "
                 << h.RepartitionCount());
    EXPECT_EQ(ModelDigest(h.Model()), c.digest);
    EXPECT_EQ(h.RepartitionCount(), c.repartitions);
  }
}

TEST(DynamicVOptDeathTest, RejectsBadConfig) {
  DynamicVOptConfig config;
  config.buckets = 1;
  EXPECT_DEATH(DynamicVOptHistogram{config}, "DH_CHECK");
  config.buckets = 8;
  config.sub_buckets = 5;
  EXPECT_DEATH(DynamicVOptHistogram{config}, "DH_CHECK");
}

}  // namespace
}  // namespace dynhist
