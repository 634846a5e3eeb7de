#include "src/histogram/ssbm.h"

#include <cmath>
#include <limits>
#include <memory>

#include "src/common/rng.h"

#include <gtest/gtest.h>

#include "src/data/cluster_generator.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/merge.h"
#include "src/histogram/st_feedback.h"
#include "src/histogram/static_voptimal.h"
#include "src/metrics/ks.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

TEST(SsbmTest, EmptyInput) {
  EXPECT_TRUE(BuildSsbm(std::vector<ValueFreq>{}, 5).Empty());
}

TEST(SsbmTest, ExactWhenBudgetCoversDistinct) {
  const FrequencyVector data = testing::MakeData(50, {1, 9, 9, 40});
  const auto model = BuildSsbm(data, 8);
  EXPECT_NEAR(KsStatistic(data, model), 0.0, 1e-12);
}

TEST(SsbmTest, ProducesRequestedBucketCount) {
  Rng rng(1);
  FrequencyVector data(300);
  for (int i = 0; i < 3'000; ++i) data.Insert(rng.UniformInt(0, 299));
  for (const std::int64_t buckets : {1, 2, 7, 31}) {
    const auto model = BuildSsbm(data, buckets);
    EXPECT_EQ(model.NumBuckets(), static_cast<std::size_t>(buckets));
    EXPECT_NEAR(model.TotalCount(), 3'000.0, 1e-6);
    EXPECT_TRUE(testing::ModelIsValid(model));
  }
}

TEST(SsbmTest, MergesTheMostSimilarBucketsFirst) {
  // Two plateaus: every merge inside a plateau has rho ~ 0, so the surviving
  // border must separate the plateaus.
  std::vector<ValueFreq> entries;
  for (std::int64_t v = 0; v < 8; ++v) entries.push_back({v, 5.0});
  for (std::int64_t v = 8; v < 16; ++v) entries.push_back({v, 500.0});
  const auto model = BuildSsbm(entries, 2);
  ASSERT_EQ(model.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(model.BucketPieces(1).front().left, 8.0);
}

TEST(SsbmTest, ComparableToVOptimalOnClusteredData) {
  // §5 / Figs. 9-12: SSBM quality ~ SVO quality. Allow a modest margin.
  ClusterDataConfig config;
  config.num_points = 20'000;
  config.domain_size = 1'001;
  config.num_clusters = 50;
  config.stddev_sd = 1.0;
  config.seed = 13;
  const FrequencyVector data(config.domain_size,
                             GenerateClusterData(config));
  const double svo = KsStatistic(data, BuildVOptimal(data, 17));
  const double ssbm = KsStatistic(data, BuildSsbm(data, 17));
  EXPECT_LT(ssbm, std::max(2.0 * svo, svo + 0.02));
}

TEST(SsbmTest, MergeKeyAblationBothWork) {
  Rng rng(3);
  FrequencyVector data(500);
  for (int i = 0; i < 5'000; ++i) {
    data.Insert(rng.Bernoulli(0.4) ? rng.UniformInt(100, 120)
                                   : rng.UniformInt(0, 499));
  }
  SsbmOptions merged_key;
  SsbmOptions delta_key;
  delta_key.merge_key = SsbmOptions::MergeKey::kDeviationIncrease;
  const double ks_merged = KsStatistic(data, BuildSsbm(data, 15, merged_key));
  const double ks_delta = KsStatistic(data, BuildSsbm(data, 15, delta_key));
  EXPECT_LT(ks_merged, 0.2);
  EXPECT_LT(ks_delta, 0.2);
}

TEST(SsbmTest, AbsolutePolicyWorks) {
  Rng rng(4);
  FrequencyVector data(400);
  for (int i = 0; i < 4'000; ++i) data.Insert(rng.UniformInt(0, 399));
  SsbmOptions options;
  options.policy = DeviationPolicy::kAbsolute;
  const auto model = BuildSsbm(data, 12, options);
  EXPECT_EQ(model.NumBuckets(), 12u);
  EXPECT_LT(KsStatistic(data, model), 0.1);
}

TEST(SsbmTest, SingleEntryStaysSingular) {
  FrequencyVector data(100);
  for (int i = 0; i < 50; ++i) data.Insert(42);
  const auto model = BuildSsbm(data, 3);
  ASSERT_EQ(model.NumBuckets(), 1u);
  EXPECT_TRUE(model.buckets()[0].singular);
  EXPECT_NEAR(KsStatistic(data, model), 0.0, 1e-12);
}

// Every piece and every bucket of `a` equals `b` bit for bit.
void ExpectSameModel(const HistogramModel& a, const HistogramModel& b) {
  ASSERT_EQ(a.NumPieces(), b.NumPieces());
  for (std::size_t i = 0; i < a.NumPieces(); ++i) {
    EXPECT_EQ(a.pieces()[i].left, b.pieces()[i].left) << "piece " << i;
    EXPECT_EQ(a.pieces()[i].right, b.pieces()[i].right) << "piece " << i;
    EXPECT_EQ(a.pieces()[i].count, b.pieces()[i].count) << "piece " << i;
  }
  EXPECT_TRUE(a.buckets() == b.buckets());
}

TEST(SsbmTest, QuadraticScanMatchesTree) {
  // The O(D^2) paper-style selection and the tournament tree pick the same
  // pair at every step, so the histograms are identical.
  Rng rng(6);
  std::vector<ValueFreq> entries;
  std::int64_t v = 0;
  for (int i = 0; i < 150; ++i) {
    v += 1 + static_cast<std::int64_t>(rng.UniformInt(4));
    entries.push_back({v, 1.0 + rng.UniformDouble() * 50.0});
  }
  SsbmOptions scan_options;
  scan_options.use_quadratic_scan = true;
  ExpectSameModel(BuildSsbm(entries, 12), BuildSsbm(entries, 12, scan_options));
}

TEST(SsbmTest, QuadraticScanMatchesTreeOnExactTies) {
  // Integer frequencies 1-3 over consecutive values make many merge keys
  // tie exactly. The paper's scan takes the leftmost of the tied pairs; the
  // default selection must take the same one, under every policy and key.
  for (const DeviationPolicy policy :
       {DeviationPolicy::kSquared, DeviationPolicy::kAbsolute}) {
    for (const SsbmOptions::MergeKey key :
         {SsbmOptions::MergeKey::kMergedDeviation,
          SsbmOptions::MergeKey::kDeviationIncrease}) {
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " policy "
                     << static_cast<int>(policy) << " key "
                     << static_cast<int>(key));
        Rng rng(seed);
        std::vector<ValueFreq> entries;
        for (std::int64_t value = 0; value < 200; ++value) {
          entries.push_back(
              {value, static_cast<double>(1 + rng.UniformInt(3))});
        }
        SsbmOptions options;
        options.policy = policy;
        options.merge_key = key;
        SsbmOptions scan_options = options;
        scan_options.use_quadratic_scan = true;
        ExpectSameModel(BuildSsbm(entries, 16, options),
                        BuildSsbm(entries, 16, scan_options));
      }
    }
  }
}

// Seeded piece slices with mixed widths (fractional, unit and multi-cell),
// zero counts and gaps between slices.
std::vector<HistogramModel::Piece> MixedSlices(std::uint64_t seed, int n) {
  constexpr double kWidths[] = {1.0, 1.0, 0.5, 2.5, 7.0, 0.25};
  Rng rng(seed);
  std::vector<HistogramModel::Piece> slices;
  double left = -50.0;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      left += 1.0 + static_cast<double>(rng.UniformInt(6));
    }
    const double width = kWidths[rng.UniformInt(6)];
    const double count =
        rng.Bernoulli(0.15) ? 0.0 : static_cast<double>(rng.UniformInt(40));
    slices.push_back({left, left + width, count});
    left += width;
  }
  return slices;
}

TEST(SsbmTest, EveryOptionCombinationIsPinned) {
  // Bit-identity pins of BuildSsbm under every deviation policy and merge
  // key, over per-value cluster data and over piece slices. Each digest
  // folds the models built at budgets 1, 7 and 64; the tournament tree and
  // the quadratic scan must both reproduce it, so a change both selection
  // paths share still moves a digest.
  ClusterDataConfig config;
  config.num_points = 6'000;
  config.domain_size = 801;
  config.num_clusters = 40;
  config.seed = 17;
  const FrequencyVector cluster_data(config.domain_size,
                                     GenerateClusterData(config));
  const std::vector<HistogramModel::Piece> slices = MixedSlices(29, 300);
  using Key = SsbmOptions::MergeKey;
  struct Case {
    bool slice_input;
    DeviationPolicy policy;
    Key key;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {false, DeviationPolicy::kSquared, Key::kMergedDeviation,
       0xb857ccbc21186dd6ull},
      {false, DeviationPolicy::kSquared, Key::kDeviationIncrease,
       0xbd8402c603a9b986ull},
      {false, DeviationPolicy::kAbsolute, Key::kMergedDeviation,
       0x32d38966f46d4d14ull},
      {false, DeviationPolicy::kAbsolute, Key::kDeviationIncrease,
       0x0c481e3a461a78edull},
      {true, DeviationPolicy::kSquared, Key::kMergedDeviation,
       0x25ef68f189d65737ull},
      {true, DeviationPolicy::kSquared, Key::kDeviationIncrease,
       0x3749804ea91b0725ull},
      {true, DeviationPolicy::kAbsolute, Key::kMergedDeviation,
       0x7e4bc5551b24d92bull},
      {true, DeviationPolicy::kAbsolute, Key::kDeviationIncrease,
       0x1874b98b95a48ae4ull},
  };
  for (const Case& c : cases) {
    for (const bool scan : {false, true}) {
      SsbmOptions options;
      options.policy = c.policy;
      options.merge_key = c.key;
      options.use_quadratic_scan = scan;
      std::uint64_t digest = testing::kModelDigestBasis;
      for (const std::int64_t buckets : {1, 7, 64}) {
        const HistogramModel model =
            c.slice_input ? BuildSsbm(slices, buckets, options)
                          : BuildSsbm(cluster_data, buckets, options);
        digest = testing::ModelDigest(model, digest);
      }
      EXPECT_EQ(digest, c.digest)
          << (c.slice_input ? "slices" : "cluster data") << " policy "
          << static_cast<int>(c.policy) << " key " << static_cast<int>(c.key)
          << (scan ? " scan" : " tree") << ": digest 0x" << std::hex
          << digest;
    }
  }
}

// Differential tests of the default selection — batched rounds of
// provably forced merges, then the tournament tree — against the paper's
// quadratic scan. Every input is reduced at budgets 1, 7, 16 and 64 and
// must give the same pieces and buckets bit for bit. The families aim at
// the rounds' proof obligations: composites like the engine's, exact ties,
// keys that are pure rounding noise, extreme magnitudes, and inputs where
// no pair qualifies and the tree runs from the start. Together they reduce
// more than 2,000 inputs.
using Slices = std::vector<HistogramModel::Piece>;

// Reduces `slices` both ways at every budget; returns 1 (one input).
int ExpectRoundsMatchScan(const Slices& slices) {
  SsbmOptions scan;
  scan.use_quadratic_scan = true;
  for (const std::int64_t buckets : {1, 7, 16, 64}) {
    SCOPED_TRACE(::testing::Message() << "budget " << buckets << ", "
                                      << slices.size() << " slices");
    ExpectSameModel(BuildSsbm(slices, buckets),
                    BuildSsbm(slices, buckets, scan));
  }
  return 1;
}

// The nonzero pieces of a superimposed fleet of 1-12 shard histograms of
// one kind, fed a shuffled cluster data set as the engine feeds its shards
// (ST-FEEDBACK: range observations at 1/k scale).
Slices FleetComposite(int kind, std::uint64_t seed) {
  Rng rng(seed);
  const int shards = 1 + static_cast<int>(rng.UniformInt(12));
  const auto buckets = static_cast<std::int64_t>(4 + rng.UniformInt(21));
  ClusterDataConfig config;
  config.num_points = static_cast<std::int64_t>(1'000 + rng.UniformInt(4'000));
  config.domain_size = 2'001;
  config.num_clusters = 5 + static_cast<std::int64_t>(rng.UniformInt(60));
  config.seed = seed;
  std::vector<std::int64_t> values = GenerateClusterData(config);
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.UniformInt(i)]);
  }
  std::vector<std::unique_ptr<Histogram>> fleet;
  for (int s = 0; s < shards; ++s) {
    switch (kind) {
      case 0:
        fleet.push_back(std::make_unique<DynamicCompressedHistogram>(
            DynamicCompressedConfig{.buckets = buckets}));
        break;
      case 1:
      case 2:
        fleet.push_back(std::make_unique<DynamicVOptHistogram>(
            DynamicVOptConfig{.buckets = buckets,
                              .policy = kind == 1
                                            ? DeviationPolicy::kSquared
                                            : DeviationPolicy::kAbsolute}));
        break;
      default: {
        StFeedbackConfig st;
        st.buckets = buckets;
        st.domain_hi = config.domain_size - 1;
        fleet.push_back(std::make_unique<StFeedbackHistogram>(st));
      }
    }
  }
  if (kind == 3) {
    const FrequencyVector truth(config.domain_size, values);
    for (int q = 0; q < 300; ++q) {
      const std::int64_t lo = rng.UniformInt(0, config.domain_size - 1);
      const std::int64_t hi = rng.UniformInt(lo, config.domain_size - 1);
      const double actual =
          static_cast<double>(truth.RangeCount(lo, hi)) / shards;
      for (auto& h : fleet) h->ApplyFeedback(lo, hi, actual);
    }
  } else {
    for (const std::int64_t v : values) {
      fleet[rng.UniformInt(static_cast<std::uint64_t>(shards))]->Insert(v);
    }
  }
  std::vector<HistogramModel> models;
  for (const auto& h : fleet) models.push_back(h->Model());
  const HistogramModel composite = Superimpose(models);
  Slices slices;
  for (const auto& p : composite.pieces()) {
    if (p.count > 0.0) slices.push_back(p);
  }
  return slices;
}

TEST(SsbmRoundsTest, MatchScanOnSuperimposedFleets) {
  int inputs = 0;
  for (int kind = 0; kind < 4; ++kind) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      SCOPED_TRACE(::testing::Message() << "kind " << kind << " seed " << seed);
      inputs += ExpectRoundsMatchScan(FleetComposite(kind, seed));
    }
  }
  EXPECT_EQ(inputs, 400);
}

TEST(SsbmRoundsTest, MatchScanOnTieHeavyIntegerFrequencies) {
  // Frequencies 1-3 (or one of 1, 2, 4) over runs of consecutive values
  // with occasional gaps: many merge keys tie exactly.
  int inputs = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto n = static_cast<int>(2 + rng.UniformInt(299));
    const bool powers = seed % 2 == 0;
    Slices slices;
    double left = 0.0;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.05)) {
        left += static_cast<double>(rng.UniformInt(1, 3));
      }
      const double freq =
          powers ? static_cast<double>(1 << rng.UniformInt(3))
                 : static_cast<double>(1 + rng.UniformInt(3));
      slices.push_back({left, left + 1.0, freq});
      left += 1.0;
    }
    inputs += ExpectRoundsMatchScan(slices);
  }
  EXPECT_EQ(inputs, 500);
}

TEST(SsbmRoundsTest, MatchScanOnUniformAndNearUniformDensities) {
  // One density everywhere: exactly (unit slices of one count, so every
  // key is 0), up to the rounding of count = density * width (keys are
  // rounding noise), or perturbed by 1e-12 (keys far below the rounds'
  // error bound). No pair may be merged early on noise.
  int inputs = 0;
  for (std::uint64_t seed = 1; seed <= 450; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto n = static_cast<int>(2 + rng.UniformInt(299));
    const double density = std::ldexp(1.0 + rng.UniformDouble(),
                                      static_cast<int>(rng.UniformInt(-8, 8)));
    const int mode = static_cast<int>(seed % 3);
    Slices slices;
    double left = -100.0 * rng.UniformDouble();
    for (int i = 0; i < n; ++i) {
      const double width = mode == 0 ? 1.0 : 0.05 + 3.0 * rng.UniformDouble();
      double count = mode == 0 ? density : density * width;
      if (mode == 2) count *= 1.0 + 1e-12 * (2.0 * rng.UniformDouble() - 1.0);
      slices.push_back({left, left + width, count});
      left += width;
    }
    inputs += ExpectRoundsMatchScan(slices);
  }
  EXPECT_EQ(inputs, 450);
}

TEST(SsbmRoundsTest, MatchScanOnExtremeWidthsCountsAndGaps) {
  // Widths from 2^-20 to 2^20, counts from 1e-10 to 1e20 (some zero), and
  // gaps of either scale between slices.
  int inputs = 0;
  for (std::uint64_t seed = 1; seed <= 650; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto n = static_cast<int>(2 + rng.UniformInt(299));
    // Narrow spans keep one scale; wide ones mix all of them in one input.
    const int span = static_cast<int>(rng.UniformInt(1, 40));
    const int width_lo = static_cast<int>(rng.UniformInt(-20, 20 - span / 2));
    const int count_lo = static_cast<int>(rng.UniformInt(-10, 20 - span / 2));
    Slices slices;
    double left = std::ldexp(rng.UniformDouble() - 0.5, 21);
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.2)) {
        left += std::ldexp(1.0 + rng.UniformDouble(),
                           static_cast<int>(rng.UniformInt(-20, 20)));
      }
      const int width_exp = std::min<int>(
          20, width_lo + static_cast<int>(rng.UniformInt(span / 2 + 1)));
      const int count_exp = std::min<int>(
          20, count_lo + static_cast<int>(rng.UniformInt(span / 2 + 1)));
      const double width = std::ldexp(1.0 + rng.UniformDouble(), width_exp - 1);
      const double count = rng.Bernoulli(0.05)
                               ? 0.0
                               : (1.0 + 9.0 * rng.UniformDouble()) *
                                     std::pow(10.0, count_exp - 1);
      const double right = left + width;
      slices.push_back({left, right, count});
      left = right;
    }
    inputs += ExpectRoundsMatchScan(slices);
  }
  EXPECT_EQ(inputs, 650);
}

TEST(SsbmRoundsTest, MatchScanWhenTheTreeRunsFromTheStart) {
  // No pair qualifies for a round: every key tied (one count on unit
  // slices), or S = sum count^2/width overflowing to inf, which makes the
  // error bound infinite while every key stays finite.
  int inputs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto n = static_cast<int>(100 + rng.UniformInt(800));
    Slices tied;
    Slices overflowing;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const double left = static_cast<double>(i);
      tied.push_back({left, left + 1.0, 5.0 * static_cast<double>(seed)});
      const double count = (1.0 + rng.UniformDouble()) * 1e153;
      overflowing.push_back({left, left + 1.0, count});
      sum += count * count;
    }
    ASSERT_TRUE(std::isinf(sum));
    inputs += ExpectRoundsMatchScan(tied);
    inputs += ExpectRoundsMatchScan(overflowing);
  }
  EXPECT_EQ(inputs, 20);
}

TEST(SsbmTest, TotalMassInvariantUnderMerging) {
  Rng rng(5);
  std::vector<ValueFreq> entries;
  std::int64_t v = 0;
  for (int i = 0; i < 200; ++i) {
    v += 1 + static_cast<std::int64_t>(rng.UniformInt(5));
    entries.push_back({v, static_cast<double>(1 + rng.UniformInt(30))});
  }
  double total = 0.0;
  for (const auto& e : entries) total += e.freq;
  for (const std::int64_t buckets : {1, 3, 50, 150}) {
    EXPECT_NEAR(BuildSsbm(entries, buckets).TotalCount(), total, 1e-6);
  }
}

}  // namespace
}  // namespace dynhist
