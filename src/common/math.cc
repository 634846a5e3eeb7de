#include "src/common/math.h"

#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dynhist {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEpsilon;

// Series representation of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Modified-Lentz continued fraction for Q(a, x); converges for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double GammaP(double a, double x) {
  DH_CHECK(a > 0.0);
  DH_CHECK(x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double GammaQ(double a, double x) {
  DH_CHECK(a > 0.0);
  DH_CHECK(x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double ChiSquareProbability(double chi2, double dof) {
  DH_CHECK(dof > 0.0);
  DH_CHECK(chi2 >= 0.0);
  return GammaQ(0.5 * dof, 0.5 * chi2);
}

}  // namespace dynhist
