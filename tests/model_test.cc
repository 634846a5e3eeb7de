#include "src/histogram/model.h"

#include <gtest/gtest.h>

namespace dynhist {
namespace {

using Piece = HistogramModel::Piece;

TEST(ModelTest, EmptyModel) {
  HistogramModel model;
  EXPECT_TRUE(model.Empty());
  EXPECT_DOUBLE_EQ(model.TotalCount(), 0.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(123.0), 0.0);
  EXPECT_DOUBLE_EQ(model.EstimateRange(0, 100), 0.0);
}

TEST(ModelTest, TotalCountSumsPieces) {
  const auto model = HistogramModel::FromSimpleBuckets(
      {{0, 10, 5.0}, {10, 20, 15.0}});
  EXPECT_DOUBLE_EQ(model.TotalCount(), 20.0);
  EXPECT_EQ(model.NumBuckets(), 2u);
}

TEST(ModelTest, CdfMassInterpolatesLinearly) {
  const auto model =
      HistogramModel::FromSimpleBuckets({{0, 10, 10.0}, {10, 20, 30.0}});
  EXPECT_DOUBLE_EQ(model.CdfMass(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(5.0), 5.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(10.0), 10.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(15.0), 25.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(20.0), 40.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(99.0), 40.0);
}

TEST(ModelTest, CdfHandlesGapsBetweenBuckets) {
  // Zero-density gap (10, 20): flat CDF.
  const auto model =
      HistogramModel::FromSimpleBuckets({{0, 10, 10.0}, {20, 30, 10.0}});
  EXPECT_DOUBLE_EQ(model.CdfMass(10.0), 10.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(15.0), 10.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(20.0), 10.0);
  EXPECT_DOUBLE_EQ(model.CdfMass(25.0), 15.0);
}

TEST(ModelTest, EstimateRangeUsesCellConvention) {
  // Value v occupies [v, v+1): a single-cell bucket answers point queries
  // exactly.
  const auto model = HistogramModel::FromSimpleBuckets({{5, 6, 7.0}});
  EXPECT_DOUBLE_EQ(model.EstimatePoint(5), 7.0);
  EXPECT_DOUBLE_EQ(model.EstimatePoint(4), 0.0);
  EXPECT_DOUBLE_EQ(model.EstimatePoint(6), 0.0);
  EXPECT_DOUBLE_EQ(model.EstimateRange(0, 10), 7.0);
  EXPECT_DOUBLE_EQ(model.EstimateRange(6, 4), 0.0);  // empty range
}

TEST(ModelTest, EstimateRangePartialOverlap) {
  const auto model = HistogramModel::FromSimpleBuckets({{0, 10, 10.0}});
  // [2, 4] covers cells [2,5): 3 of 10 cells -> 3 points.
  EXPECT_DOUBLE_EQ(model.EstimateRange(2, 4), 3.0);
}

TEST(ModelTest, MultiPieceBuckets) {
  // One bucket with two sub-pieces (a DADO bucket).
  HistogramModel model({{0, 5, 2.0}, {5, 10, 8.0}}, {{0, 2, false}});
  EXPECT_EQ(model.NumBuckets(), 1u);
  EXPECT_EQ(model.NumPieces(), 2u);
  EXPECT_DOUBLE_EQ(model.BucketCount(0), 10.0);
  EXPECT_EQ(model.BucketPieces(0).size(), 2u);
}

TEST(ModelTest, MinMaxBorder) {
  const auto model =
      HistogramModel::FromSimpleBuckets({{3, 7, 1.0}, {7, 12, 2.0}});
  EXPECT_DOUBLE_EQ(model.MinBorder(), 3.0);
  EXPECT_DOUBLE_EQ(model.MaxBorder(), 12.0);
}

TEST(ModelDeathTest, RejectsUnsortedPieces) {
  EXPECT_DEATH(HistogramModel::FromSimpleBuckets({{10, 20, 1.0}, {0, 9, 1.0}}),
               "DH_CHECK");
}

TEST(ModelDeathTest, RejectsZeroWidthPiece) {
  EXPECT_DEATH(HistogramModel::FromSimpleBuckets({{5, 5, 1.0}}), "DH_CHECK");
}

TEST(ModelDeathTest, RejectsNegativeCount) {
  EXPECT_DEATH(HistogramModel::FromSimpleBuckets({{0, 5, -1.0}}), "DH_CHECK");
}

TEST(ModelDeathTest, RejectsBucketsNotTilingPieces) {
  EXPECT_DEATH(HistogramModel({{0, 5, 1.0}, {5, 9, 1.0}}, {{0, 1, false}}),
               "DH_CHECK");
}

}  // namespace
}  // namespace dynhist
