#include "src/metrics/query_error.h"

#include <gtest/gtest.h>

#include "src/histogram/static_equi.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

TEST(QueryErrorTest, ExactModelHasZeroError) {
  const FrequencyVector data = testing::MakeData(50, {3, 3, 10, 20, 20, 20});
  const auto model = HistogramModel::FromSimpleBuckets(
      {{3, 4, 2.0}, {10, 11, 1.0}, {20, 21, 3.0}});
  Rng rng(1);
  const auto queries = MakeUniformQueries(50, 200, rng);
  EXPECT_NEAR(AvgRelativeErrorPercent(data, model, queries), 0.0, 1e-9);
}

TEST(QueryErrorTest, KnownSingleQueryError) {
  const FrequencyVector data = testing::MakeData(10, {0, 0, 0, 0});  // 4 @ 0
  // Model spreads the 4 points over [0, 4): point query {0} estimates 1.
  const auto model = HistogramModel::FromSimpleBuckets({{0, 4, 4.0}});
  const std::vector<RangeQuery> queries = {{0, 0}};
  // |4 - 1| / 4 = 0.75 -> 75%.
  EXPECT_NEAR(AvgRelativeErrorPercent(data, model, queries), 75.0, 1e-9);
}

TEST(QueryErrorTest, SkipsEmptyQueries) {
  const FrequencyVector data = testing::MakeData(10, {5});
  const auto model = HistogramModel::FromSimpleBuckets({{5, 6, 1.0}});
  const std::vector<RangeQuery> queries = {{0, 1}, {5, 5}};
  // The empty query {0,1} is skipped; {5,5} is exact.
  EXPECT_NEAR(AvgRelativeErrorPercent(data, model, queries), 0.0, 1e-9);
}

TEST(QueryErrorTest, AllEmptyQueriesGiveZero) {
  const FrequencyVector data = testing::MakeData(10, {5});
  const auto model = HistogramModel::FromSimpleBuckets({{5, 6, 1.0}});
  const std::vector<RangeQuery> queries = {{0, 1}, {7, 9}};
  EXPECT_DOUBLE_EQ(AvgRelativeErrorPercent(data, model, queries), 0.0);
}

TEST(QueryGeneratorsTest, UniformQueriesNormalized) {
  Rng rng(2);
  for (const RangeQuery& q : MakeUniformQueries(100, 500, rng)) {
    EXPECT_LE(q.lo, q.hi);
    EXPECT_GE(q.lo, 0);
    EXPECT_LT(q.hi, 100);
  }
}

TEST(QueryGeneratorsTest, DataQueriesFollowDistribution) {
  FrequencyVector data(100);
  for (int i = 0; i < 1'000; ++i) data.Insert(10);
  data.Insert(90);
  Rng rng(3);
  const auto queries = MakeDataQueries(data, 300, rng);
  // Nearly all endpoints should be the dominant value 10.
  int at10 = 0;
  for (const RangeQuery& q : queries) at10 += (q.lo == 10 && q.hi == 10);
  EXPECT_GT(at10, 250);
}

TEST(QueryErrorTest, AgreesWithKsOnRelativeRanking) {
  // A much finer histogram should rank better under Eq. (7) as well.
  Rng rng(5);
  FrequencyVector data(300);
  for (int i = 0; i < 3'000; ++i) {
    data.Insert(rng.UniformInt(0, 49) * (rng.Bernoulli(0.3) ? 5 : 1));
  }
  const auto coarse = BuildEquiDepth(data, 3);
  const auto fine = BuildEquiDepth(data, 48);
  Rng qrng(6);
  const auto queries = MakeUniformQueries(300, 400, qrng);
  EXPECT_LT(AvgRelativeErrorPercent(data, fine, queries),
            AvgRelativeErrorPercent(data, coarse, queries));
}

}  // namespace
}  // namespace dynhist
