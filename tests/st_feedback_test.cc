#include "src/histogram/st_feedback.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/engine/engine_options.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/dynamic_compressed.h"
#include "src/histogram/model.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

// A 4-bucket layout over [0, 40) with restructuring on manual trigger
// only — the controlled fixture for the threshold-boundary tests.
StFeedbackConfig SmallConfig() {
  StFeedbackConfig config;
  config.buckets = 4;
  config.domain_lo = 0;
  config.domain_hi = 39;
  config.split_threshold = 0.25;
  config.merge_threshold = 0.1;
  config.restructure_every = 0;
  return config;
}

// Places exact per-bucket masses via InsertN at the bucket midpoints.
void SeedMasses(StFeedbackHistogram& h,
                const std::vector<std::int64_t>& masses) {
  for (std::size_t i = 0; i < masses.size(); ++i) {
    h.InsertN(static_cast<std::int64_t>(10 * i + 5), masses[i]);
  }
}

// Sum of piece masses.
double TotalMass(const HistogramModel& model) {
  double total = 0.0;
  for (const auto& piece : model.pieces()) total += piece.count;
  return total;
}

TEST(StFeedbackTest, DampedSingleRangeConvergence) {
  StFeedbackConfig config = SmallConfig();
  StFeedbackHistogram h(config);
  // First observation lands on empty buckets: est 0, pre-update error is
  // the full actual. With alpha = 0.5 each subsequent observation halves
  // the remaining gap — the classic damped geometric approach.
  EXPECT_DOUBLE_EQ(h.ApplyFeedback(10, 19, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(h.ApplyFeedback(10, 19, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(h.ApplyFeedback(10, 19, 100.0), 25.0);
  for (int i = 0; i < 40; ++i) h.ApplyFeedback(10, 19, 100.0);
  EXPECT_NEAR(h.Model().EstimateRange(10, 19), 100.0, 1e-6);
}

TEST(StFeedbackTest, OverestimateIsDampedDownward) {
  StFeedbackHistogram h(SmallConfig());
  SeedMasses(h, {0, 200, 0, 0});
  // Bucket [10,20) claims 200 but the range actually holds 40: the error
  // folds in damped, proportionally to the bucket's contribution.
  EXPECT_DOUBLE_EQ(h.ApplyFeedback(10, 19, 40.0), 160.0);
  EXPECT_DOUBLE_EQ(h.Model().EstimateRange(10, 19), 120.0);
  for (int i = 0; i < 40; ++i) h.ApplyFeedback(10, 19, 40.0);
  EXPECT_NEAR(h.Model().EstimateRange(10, 19), 40.0, 1e-6);
}

TEST(StFeedbackTest, SplitTriggersAboveThresholdOnly) {
  // At exactly the threshold fraction no bucket is a split candidate.
  StFeedbackHistogram at(SmallConfig());
  SeedMasses(at, {25, 25, 25, 25});
  at.ForceRestructureForTest();
  EXPECT_EQ(at.restructures(), 0u);
  EXPECT_EQ(at.BucketCountForTest(), 4u);

  // Just above it the heavy bucket splits, funded by one merge of the
  // most-similar adjacent pair; the bucket budget is invariant.
  StFeedbackHistogram above(SmallConfig());
  SeedMasses(above, {40, 20, 20, 20});
  above.ForceRestructureForTest();
  EXPECT_EQ(above.restructures(), 1u);
  EXPECT_EQ(above.splits(), 1u);
  EXPECT_EQ(above.merges(), 1u);
  EXPECT_EQ(above.BucketCountForTest(), 4u);
  const HistogramModel model = above.Model();
  ASSERT_EQ(model.pieces().size(), 4u);
  // [0,10) split into two 20-mass halves; [10,20)+[20,30) merged.
  EXPECT_DOUBLE_EQ(model.pieces()[0].left, 0.0);
  EXPECT_DOUBLE_EQ(model.pieces()[0].right, 5.0);
  EXPECT_DOUBLE_EQ(model.pieces()[0].count, 20.0);
  EXPECT_DOUBLE_EQ(model.pieces()[1].right, 10.0);
  EXPECT_DOUBLE_EQ(model.pieces()[2].left, 10.0);
  EXPECT_DOUBLE_EQ(model.pieces()[2].right, 30.0);
  EXPECT_DOUBLE_EQ(model.pieces()[2].count, 40.0);
  EXPECT_DOUBLE_EQ(TotalMass(model), 100.0);
}

TEST(StFeedbackTest, MergeTriggersAtThresholdBoundary) {
  // Pair difference exactly at merge_threshold * total merges (<=).
  StFeedbackConfig config = SmallConfig();
  config.merge_threshold = 0.04;  // limit = 4 at total 100
  StFeedbackHistogram at(config);
  SeedMasses(at, {40, 20, 24, 16});
  at.ForceRestructureForTest();
  EXPECT_EQ(at.restructures(), 1u);
  EXPECT_EQ(at.merges(), 1u);

  // Just above the limit no pair qualifies, so the split goes unfunded
  // and the layout is untouched.
  config.merge_threshold = 0.039;  // limit = 3.9 < every pair difference
  StFeedbackHistogram blocked(config);
  SeedMasses(blocked, {40, 20, 24, 16});
  const HistogramModel before = blocked.Model();
  blocked.ForceRestructureForTest();
  EXPECT_EQ(blocked.restructures(), 0u);
  EXPECT_EQ(blocked.merges(), 0u);
  EXPECT_TRUE(testing::ModelsBitIdentical(before, blocked.Model()));
}

TEST(StFeedbackTest, AdversarialZeroActualKeepsMassesNonNegative) {
  StFeedbackConfig config;
  config.buckets = 16;
  config.domain_lo = 0;
  config.domain_hi = 999;
  config.restructure_every = 50;
  StFeedbackHistogram h(config);
  Rng rng(7);
  // Build mass up, then hammer the heavy regions with actual = 0 — the
  // worst case for a subtractive update rule.
  for (int i = 0; i < 500; ++i) {
    h.ApplyFeedback(rng.UniformInt(0, 900), 999, 5000.0);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t lo = rng.UniformInt(0, 999);
    const std::int64_t hi = std::min<std::int64_t>(999, lo + rng.UniformInt(0, 999));
    h.ApplyFeedback(lo, hi, 0.0);
    EXPECT_GE(h.TotalCount(), 0.0);
  }
  const HistogramModel model = h.Model();
  EXPECT_TRUE(testing::ModelIsValid(model));
  for (const auto& piece : model.pieces()) EXPECT_GE(piece.count, 0.0);
}

TEST(StFeedbackTest, ModelWellFormedUnderMixedTraffic) {
  StFeedbackConfig config;
  config.buckets = 32;
  config.domain_lo = 0;
  config.domain_hi = 1999;
  config.restructure_every = 100;
  StFeedbackHistogram h(config);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        h.Insert(rng.UniformInt(0, 1999));
        break;
      case 1:
        h.Delete(rng.UniformInt(0, 1999), 1);
        break;
      default: {
        const std::int64_t lo = rng.UniformInt(0, 1950);
        h.ApplyFeedback(lo, lo + rng.UniformInt(0, 49),
                        static_cast<double>(rng.UniformInt(0, 500)));
        break;
      }
    }
  }
  const HistogramModel model = h.Model();
  EXPECT_TRUE(testing::ModelIsValid(model));
  // Coverage is contiguous: every piece starts where the last ended.
  for (std::size_t i = 1; i < model.pieces().size(); ++i) {
    EXPECT_DOUBLE_EQ(model.pieces()[i].left, model.pieces()[i - 1].right);
  }
  EXPECT_EQ(h.Name(), "STF");
}

TEST(StFeedbackTest, RestructuringIsBitStable) {
  StFeedbackConfig config;
  config.buckets = 24;
  config.domain_lo = 0;
  config.domain_hi = 999;
  config.merge_threshold = 0.05;
  config.restructure_every = 64;
  StFeedbackHistogram a(config);
  StFeedbackHistogram b(config);
  Rng rng(31);
  for (int i = 0; i < 1500; ++i) {
    // Skewed traffic: a hot head that concentrates enough mass to make
    // split candidates, and a near-uniform cold tail that funds them.
    std::int64_t lo;
    std::int64_t hi;
    double actual;
    if (i % 3 != 0) {
      lo = rng.UniformInt(0, 60);
      hi = lo + rng.UniformInt(0, 19);
      actual = 3000.0;
    } else {
      lo = rng.UniformInt(100, 950);
      hi = lo + rng.UniformInt(0, 49);
      actual = 30.0;
    }
    a.ApplyFeedback(lo, hi, actual);
    b.ApplyFeedback(lo, hi, actual);
    if (i % 100 == 99) {
      ASSERT_TRUE(testing::ModelsBitIdentical(a.Model(), b.Model()));
    }
  }
  EXPECT_GT(a.restructures(), 0u);
  EXPECT_EQ(a.restructures(), b.restructures());
}

TEST(StFeedbackTest, DomainGrowsToCoverOutOfRangeTraffic) {
  StFeedbackConfig config = SmallConfig();
  StFeedbackHistogram h(config);
  h.InsertN(-10, 5);
  // Convergence is slower than pure geometric halving here: the grown
  // trailing bucket only partially overlaps the fed range, so each step
  // also shifts mass outside it. A loose tolerance is the point.
  for (int i = 0; i < 200; ++i) h.ApplyFeedback(50, 99, 70.0);
  const HistogramModel model = h.Model();
  EXPECT_LE(model.pieces().front().left, -10.0);
  EXPECT_GE(model.pieces().back().right, 100.0);
  EXPECT_NEAR(model.EstimateRange(50, 99), 70.0, 1e-3);
  // Deletes outside coverage are ignored, not crashes.
  h.Delete(10'000, 1);
  EXPECT_TRUE(testing::ModelIsValid(h.Model()));
}

TEST(StFeedbackTest, DataDrivenBackendsIgnoreFeedback) {
  DynamicCompressedHistogram dc(DynamicCompressedConfig{.buckets = 8});
  for (int i = 0; i < 100; ++i) dc.Insert(i % 50);
  const HistogramModel before = dc.Model();
  EXPECT_DOUBLE_EQ(dc.ApplyFeedback(0, 49, 1e6), -1.0);
  EXPECT_TRUE(testing::ModelsBitIdentical(before, dc.Model()));
}

TEST(StFeedbackEngineTest, FeedbackOnDataDrivenKeyIsAnAcceptedNoOp) {
  engine::EngineOptions options;  // the default kind, DADO
  options.shards = 4;
  options.batch_size = 1;
  options.snapshot_every = 0;
  engine::HistogramEngine engine(options);

  engine.Insert("data.key", 5);
  engine.RecordFeedback(engine.Resolve("data.key"), 0, 999, 1e6);
  engine.RefreshSnapshot("data.key");
  EXPECT_NEAR(engine.EstimateRange("data.key", 0, 999), 1.0, 1e-9);
  EXPECT_EQ(engine.Stats("data.key").feedbacks, 1u);
  EXPECT_EQ(engine.Stats("data.key").rejected_feedbacks, 0u);
  EXPECT_EQ(engine.Stats().feedbacks, 1u);
}

TEST(StFeedbackEngineTest, FeedbackFlowsThroughShardBuffersAndTelemetry) {
  engine::EngineOptions options;
  options.shards = 4;
  options.batch_size = 8;  // feedback rides the batch buffers
  options.snapshot_every = 0;
  options.kind = engine::ShardHistogramKind::kStFeedback;
  options.st_feedback.domain_lo = 0;
  options.st_feedback.domain_hi = 999;
  engine::HistogramEngine engine(options);
  const engine::KeyHandle handle = engine.Resolve("k");

  for (int i = 0; i < 100; ++i) engine.RecordFeedback(handle, 200, 299, 640.0);
  engine.RefreshSnapshot("k");  // flushes any partly filled buffers
  EXPECT_NEAR(engine.EstimateRange(handle, 200, 299), 640.0, 1.0);
  EXPECT_EQ(engine.Stats(handle).feedbacks, 100u);

  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(text.find("dynhist_key_feedbacks_total{key=\"k\"} 100"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dynhist_engine_feedbacks_total 100"),
            std::string::npos);
  EXPECT_NE(text.find("dynhist_key_feedback_abs_error"), std::string::npos);
  EXPECT_EQ(engine.Stats().feedbacks, 100u);
}

// ---- The accuracy gates (ISSUE acceptance criteria) ----

struct RangeTruth {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  double actual = 0.0;
};

// A zipf-skewed range-query workload against a zipf-populated relation.
std::vector<RangeTruth> SkewedQueries(const FrequencyVector& truth,
                                      const ZipfDistribution& zipf,
                                      std::int64_t domain, int count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeTruth> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto center = static_cast<std::int64_t>(zipf.Sample(rng));
    const std::int64_t width = rng.UniformInt(1, 200);
    const std::int64_t lo = std::max<std::int64_t>(0, center - width / 2);
    const std::int64_t hi = std::min<std::int64_t>(domain - 1, lo + width);
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

TEST(StFeedbackGateTest, TrainedBeatsUntrainedEquiWidthByTwoX) {
  const std::int64_t kDomain = 5000;
  Rng rng(42);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 200'000; ++i) {
    truth.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }

  StFeedbackConfig config;
  config.buckets = 64;
  config.domain_lo = 0;
  config.domain_hi = kDomain - 1;
  StFeedbackHistogram trained(config);
  for (const RangeTruth& q :
       SkewedQueries(truth, zipf, kDomain, 4000, /*seed=*/7)) {
    trained.ApplyFeedback(q.lo, q.hi, q.actual);
  }

  // The untrained equi-width baseline of equal bucket count: same
  // layout, told only the table's total cardinality (the zero-stats
  // optimizer assumption — total mass spread uniformly).
  StFeedbackConfig baseline_config = config;
  baseline_config.alpha = 1.0;
  baseline_config.restructure_every = 0;
  StFeedbackHistogram baseline(baseline_config);
  baseline.ApplyFeedback(0, kDomain - 1,
                         static_cast<double>(truth.TotalCount()));

  const auto eval = SkewedQueries(truth, zipf, kDomain, 1000, /*seed=*/99);
  const double trained_mae = MeanAbsError(trained.Model(), eval);
  const double baseline_mae = MeanAbsError(baseline.Model(), eval);
  // Gate: >= 2x better. Measured: ~180x (trained ~290 vs baseline ~52k).
  EXPECT_LT(trained_mae * 2.0, baseline_mae)
      << "trained=" << trained_mae << " baseline=" << baseline_mae;
}

TEST(StFeedbackGateTest, TrainingSurvivesKShardMergeWithinTenPercent) {
  const std::int64_t kDomain = 5000;
  Rng rng(42);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  FrequencyVector truth(kDomain);
  for (int i = 0; i < 200'000; ++i) {
    truth.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  StFeedbackConfig config;
  config.buckets = 64;
  config.domain_lo = 0;
  config.domain_hi = kDomain - 1;

  // Unmerged reference: one directly trained instance.
  StFeedbackHistogram direct(config);
  const auto workload = SkewedQueries(truth, zipf, kDomain, 4000, /*seed=*/7);
  for (const RangeTruth& q : workload) {
    direct.ApplyFeedback(q.lo, q.hi, q.actual);
  }

  // k = 4 ST-FEEDBACK shards trained through the engine, merged by the
  // publish-time Superimpose + ReduceWithSsbm pipeline.
  engine::EngineOptions options;
  options.shards = 4;
  options.batch_size = 1;
  options.snapshot_every = 0;
  options.kind = engine::ShardHistogramKind::kStFeedback;
  options.shard_buckets = 64;
  options.merged_buckets = 64;
  options.st_feedback = config;
  engine::HistogramEngine engine(options);
  const engine::KeyHandle handle = engine.Resolve("k");
  for (const RangeTruth& q : workload) {
    engine.RecordFeedback(handle, q.lo, q.hi, q.actual);
  }
  const engine::EngineSnapshot merged = engine.RefreshSnapshot("k");

  const auto eval = SkewedQueries(truth, zipf, kDomain, 1000, /*seed=*/99);
  const double direct_mae = MeanAbsError(direct.Model(), eval);
  const double merged_mae = MeanAbsError(merged.model(), eval);
  // Gate: merged error within 10% of the unmerged model's.
  EXPECT_LE(merged_mae, direct_mae * 1.10)
      << "merged=" << merged_mae << " direct=" << direct_mae;
}

}  // namespace
}  // namespace dynhist
