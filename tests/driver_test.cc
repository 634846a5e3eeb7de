#include "src/histogram/driver.h"

#include <gtest/gtest.h>

#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/st_feedback.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

UpdateStream SmallStream() {
  UpdateStream stream;
  for (std::int64_t v = 0; v < 100; ++v) {
    stream.push_back(UpdateOp::Insert(v % 17));
  }
  for (std::int64_t v = 0; v < 40; ++v) {
    stream.push_back(UpdateOp::Delete(v % 17));
  }
  return stream;
}

DynamicVOptConfig Config() {
  return {.buckets = 8, .policy = DeviationPolicy::kAbsolute};
}

TEST(DriverTest, ReplayKeepsHistogramAndTruthInLockStep) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  Replay(SmallStream(), &h, &truth);
  EXPECT_EQ(truth.TotalCount(), 60);
  EXPECT_NEAR(h.TotalCount(), 60.0, 1e-9);
}

TEST(DriverTest, CheckpointsFireInOrderWithFinalFraction) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  std::vector<double> fractions;
  ReplayWithCheckpoints(SmallStream(), &h, &truth, 7,
                        [&](double fraction, const Histogram&,
                            const FrequencyVector&) {
                          fractions.push_back(fraction);
                        });
  ASSERT_EQ(fractions.size(), 7u);
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
}

TEST(DriverTest, CheckpointObserverSeesConsistentState) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  ReplayWithCheckpoints(
      SmallStream(), &h, &truth, 5,
      [&](double /*fraction*/, const Histogram& hist,
          const FrequencyVector& data) {
        // The histogram's count must match the truth's at every checkpoint.
        EXPECT_NEAR(hist.TotalCount(),
                    static_cast<double>(data.TotalCount()), 1e-9);
      });
}

TEST(DriverTest, SingleCheckpointIsJustTheEnd) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  int calls = 0;
  ReplayWithCheckpoints(SmallStream(), &h, &truth, 1,
                        [&](double fraction, const Histogram&,
                            const FrequencyVector&) {
                          ++calls;
                          EXPECT_DOUBLE_EQ(fraction, 1.0);
                        });
  EXPECT_EQ(calls, 1);
}

TEST(DriverTest, FeedbackOpsReachTheHistogramButNotTheTruth) {
  StFeedbackConfig config;
  config.buckets = 8;
  config.domain_lo = 0;
  config.domain_hi = 99;
  const UpdateStream stream = {
      UpdateOp::Insert(10),           UpdateOp::Feedback(0, 49, 700.0),
      UpdateOp::Insert(60),           UpdateOp::Feedback(40, 99, 20.0),
      UpdateOp::Feedback(0, 99, 0.0), UpdateOp::Insert(61),
  };
  StFeedbackHistogram replayed(config);
  FrequencyVector truth(100);
  Replay(stream, &replayed, &truth);

  StFeedbackHistogram direct(config);
  direct.Insert(10);
  direct.ApplyFeedback(0, 49, 700.0);
  direct.Insert(60);
  direct.ApplyFeedback(40, 99, 20.0);
  direct.ApplyFeedback(0, 99, 0.0);
  direct.Insert(61);

  EXPECT_TRUE(testing::ModelsBitIdentical(replayed.Model(), direct.Model()));
  EXPECT_EQ(replayed.TotalCount(), direct.TotalCount());
  // Feedback observes the data; only the three inserts reach the truth.
  EXPECT_EQ(truth.TotalCount(), 3);
  EXPECT_EQ(truth.Count(60), 1);
}

TEST(DriverDeathTest, DeleteOfAbsentValueIsRejected) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  const UpdateStream bad = {UpdateOp::Delete(5)};
  EXPECT_DEATH(Replay(bad, &h, &truth), "DH_CHECK");
}

}  // namespace
}  // namespace dynhist
