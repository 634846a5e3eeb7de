#include "src/common/math.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dynhist {
namespace {

// Reference values computed with scipy.special.gammainc / gammaincc.

TEST(GammaTest, PAndQSumToOne) {
  for (const double a : {0.5, 1.0, 2.5, 10.0, 50.0}) {
    for (const double x : {0.0, 0.1, 1.0, 2.5, 10.0, 100.0}) {
      EXPECT_NEAR(GammaP(a, x) + GammaQ(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaTest, KnownValuesExponential) {
  // a = 1: P(1, x) = 1 - exp(-x).
  for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(GammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(GammaTest, KnownValuesHalf) {
  // a = 1/2: P(1/2, x) = erf(sqrt(x)).
  for (const double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(GammaP(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(GammaTest, BoundaryBehavior) {
  EXPECT_DOUBLE_EQ(GammaP(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(GammaQ(3.0, 0.0), 1.0);
  EXPECT_NEAR(GammaP(2.0, 1e3), 1.0, 1e-12);
  EXPECT_NEAR(GammaQ(2.0, 1e3), 0.0, 1e-12);
}

TEST(GammaTest, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 20.0; x += 0.5) {
    const double p = GammaP(4.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ChiSquareTest, KnownQuantiles) {
  // Classic table values: P(chi2 >= 3.841 | dof=1) = 0.05,
  // P(chi2 >= 5.991 | dof=2) = 0.05, P(chi2 >= 18.307 | dof=10) = 0.05.
  EXPECT_NEAR(ChiSquareProbability(3.841, 1.0), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquareProbability(5.991, 2.0), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquareProbability(18.307, 10.0), 0.05, 1e-3);
}

TEST(ChiSquareTest, DofTwoIsExponential) {
  // With 2 degrees of freedom, Q(chi2) = exp(-chi2/2).
  for (const double chi2 : {0.5, 1.0, 4.0, 12.0}) {
    EXPECT_NEAR(ChiSquareProbability(chi2, 2.0), std::exp(-chi2 / 2.0),
                1e-12);
  }
}

TEST(ChiSquareTest, ExtremeDeviationHasTinyProbability) {
  EXPECT_LT(ChiSquareProbability(500.0, 10.0), 1e-6);
  EXPECT_NEAR(ChiSquareProbability(0.0, 10.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace dynhist
