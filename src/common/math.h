// Special functions needed by the histogram algorithms.
//
// The DC histogram's repartition trigger (§3, Eq. 1) requires the chi-square
// probability function, i.e. the regularized upper incomplete gamma function
// Q(a, x) — the paper cites Numerical Recipes [7]. The standard library has
// no incomplete gamma, so we implement the classic series / continued
// fraction pair here.

#ifndef DYNHIST_COMMON_MATH_H_
#define DYNHIST_COMMON_MATH_H_

namespace dynhist {

/// Regularized lower incomplete gamma function P(a, x) = γ(a,x) / Γ(a).
/// Requires a > 0 and x >= 0. Accurate to ~1e-12.
double GammaP(double a, double x);

/// Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double GammaQ(double a, double x);

/// Chi-square significance: probability that a chi-square deviate with
/// `dof` degrees of freedom is at least `chi2` under the null hypothesis,
/// i.e. Q(dof/2, chi2/2). Small values mean the null hypothesis ("bucket
/// counts are uniform", §3) is unlikely and repartitioning should trigger.
double ChiSquareProbability(double chi2, double dof);

}  // namespace dynhist

#endif  // DYNHIST_COMMON_MATH_H_
