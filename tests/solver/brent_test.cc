#include "solver/brent.h"

#include <gtest/gtest.h>

#include <cmath>

namespace endure::solver {
namespace {

TEST(BrentTest, QuadraticMinimum) {
  auto f = [](double x) { return (x - 2.0) * (x - 2.0) + 1.0; };
  Result1D r = BrentMinimize(f, -10.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0, 1e-7);
  EXPECT_NEAR(r.fx, 1.0, 1e-12);
}

TEST(BrentTest, MinimumAtLeftEdge) {
  auto f = [](double x) { return x; };
  Result1D r = BrentMinimize(f, 0.0, 5.0);
  EXPECT_NEAR(r.x, 0.0, 1e-6);
}

TEST(BrentTest, MinimumAtRightEdge) {
  auto f = [](double x) { return -x; };
  Result1D r = BrentMinimize(f, 0.0, 5.0);
  EXPECT_NEAR(r.x, 5.0, 1e-6);
}

TEST(BrentTest, NonSymmetricConvex) {
  // f(x) = e^x + e^{-2x}: minimum at x = ln(2)/3.
  auto f = [](double x) { return std::exp(x) + std::exp(-2.0 * x); };
  Result1D r = BrentMinimize(f, -5.0, 5.0);
  EXPECT_NEAR(r.x, std::log(2.0) / 3.0, 1e-7);
}

TEST(BrentTest, ConvexExponentialsMatchClosedForm) {
  // The robust dual is convex; f(x) = e^{ax} + e^{-x} is a convex family
  // with f'(x*) = 0 at x* = -ln(a) / (a + 1).
  for (double a : {0.5, 1.0, 2.0, 5.0}) {
    auto f = [a](double x) { return std::exp(a * x) + std::exp(-x); };
    const double x_star = -std::log(a) / (a + 1.0);
    Result1D r = BrentMinimize(f, -10.0, 10.0);
    EXPECT_NEAR(r.x, x_star, 1e-6) << "a=" << a;
    EXPECT_NEAR(r.fx, f(x_star), 1e-9) << "a=" << a;
  }
}

TEST(BrentTest, IterationCapRespected) {
  BrentOptions opts;
  opts.max_iter = 5;
  auto f = [](double x) { return std::cosh(x - 0.25); };
  Result1D r = BrentMinimize(f, -100.0, 100.0, opts);
  EXPECT_LE(r.iterations, 5);
  EXPECT_FALSE(r.converged);
}

TEST(BrentTest, TightToleranceConverges) {
  BrentOptions opts;
  opts.tol = 1e-12;
  auto f = [](double x) { return std::cosh(x - 0.25); };
  Result1D r = BrentMinimize(f, -4.0, 4.0, opts);
  EXPECT_TRUE(r.converged);
  // x-precision near a quadratic minimum is limited to ~sqrt(machine eps)
  // because the function is flat there.
  EXPECT_NEAR(r.x, 0.25, 1e-6);
  EXPECT_NEAR(r.fx, 1.0, 1e-12);
}

TEST(BrentTest, FlatRegionStillTerminates) {
  auto f = [](double x) { return x < 1.0 ? 0.0 : (x - 1.0); };
  Result1D r = BrentMinimize(f, -3.0, 3.0);
  EXPECT_LE(r.fx, 1e-9);
}

TEST(BrentTest, AbsoluteValueKink) {
  auto f = [](double x) { return std::fabs(x - 0.7); };
  Result1D r = BrentMinimize(f, -2.0, 2.0);
  EXPECT_NEAR(r.x, 0.7, 1e-6);
}

// Parameterized sweep: quartic minima across the bracket.
class BrentSweep : public ::testing::TestWithParam<double> {};

TEST_P(BrentSweep, FindsShiftedQuarticMinimum) {
  const double c = GetParam();
  auto f = [c](double x) { return std::pow(x - c, 4) + 0.5 * (x - c) * (x - c); };
  Result1D r = BrentMinimize(f, -12.0, 12.0);
  EXPECT_NEAR(r.x, c, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shifts, BrentSweep,
                         ::testing::Values(-9.0, -2.5, 0.0, 0.1, 3.7, 8.9));

}  // namespace
}  // namespace endure::solver
