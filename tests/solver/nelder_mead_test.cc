#include "solver/nelder_mead.h"

#include <gtest/gtest.h>

#include <cmath>

namespace endure::solver {
namespace {

Bounds Box(std::vector<double> lo, std::vector<double> hi) {
  Bounds b;
  b.lo = std::move(lo);
  b.hi = std::move(hi);
  return b;
}

TEST(BoundsTest, ClampAndContains) {
  Bounds b = Box({0.0, -1.0}, {1.0, 1.0});
  EXPECT_EQ(b.dim(), 2u);
  const std::vector<double> c = b.Clamp({2.0, -5.0});
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], -1.0);
  EXPECT_TRUE(b.Contains({0.5, 0.0}));
  EXPECT_FALSE(b.Contains({1.5, 0.0}));
}

TEST(NelderMeadTest, Sphere2D) {
  auto f = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  Result r = NelderMeadMinimize(f, {3.0, -2.0}, Box({-5, -5}, {5, 5}));
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
  EXPECT_LT(r.fx, 1e-8);
}

TEST(NelderMeadTest, Rosenbrock2D) {
  auto f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iter = 5000;
  Result r = NelderMeadMinimize(f, {-1.0, 1.0}, Box({-5, -5}, {5, 5}), opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMeadTest, RespectsBoxBounds) {
  // Unconstrained minimum at (-3, -3), box keeps us at the corner (0, 0).
  auto f = [](const std::vector<double>& x) {
    return (x[0] + 3.0) * (x[0] + 3.0) + (x[1] + 3.0) * (x[1] + 3.0);
  };
  Result r = NelderMeadMinimize(f, {2.0, 2.0}, Box({0, 0}, {4, 4}));
  EXPECT_TRUE(Box({0, 0}, {4, 4}).Contains(r.x));
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
}

TEST(NelderMeadTest, OneDimensional) {
  auto f = [](const std::vector<double>& x) {
    return std::cos(x[0]) + x[0] * x[0] / 10.0;
  };
  Result r = NelderMeadMinimize(f, {1.0}, Box({-10}, {10}));
  // Global minima at +-x* where sin(x*) = x*/5, i.e. x* ~ 2.596.
  EXPECT_NEAR(std::fabs(r.x[0]), 2.5957, 0.01);
}

TEST(NelderMeadTest, FourDimensionalQuadratic) {
  auto f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      s += (i + 1) * d * d;
    }
    return s;
  };
  NelderMeadOptions opts;
  opts.max_iter = 4000;
  Result r = NelderMeadMinimize(f, {5, 5, 5, 5},
                                Box({-10, -10, -10, -10}, {10, 10, 10, 10}),
                                opts);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(r.x[i], i, 1e-3);
}

TEST(NelderMeadTest, CountsEvaluations) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  Result r = NelderMeadMinimize(f, {1.0}, Box({-2}, {2}));
  EXPECT_GT(r.evaluations, 0);
  EXPECT_TRUE(r.converged);
}

TEST(NelderMeadTest, IterationCapRespected) {
  NelderMeadOptions opts;
  opts.max_iter = 5;
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const Bounds box = Box({-5, -5}, {5, 5});
  Result r = NelderMeadMinimize(f, {0.0, 0.0}, box, opts);
  EXPECT_LE(r.iterations, 5);
  EXPECT_FALSE(r.converged);
  // A capped run still reports its best feasible vertex.
  EXPECT_TRUE(box.Contains(r.x));
  EXPECT_DOUBLE_EQ(r.fx, f(r.x));
  EXPECT_LT(r.fx, f({0.0, 0.0}));
}

TEST(NelderMeadTest, StartOutsideBoxIsClamped) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  Result r = NelderMeadMinimize(f, {100.0}, Box({-1}, {1}));
  EXPECT_NEAR(r.x[0], 0.0, 1e-5);
}

// Piecewise surface with plateaus (mimics the LSM cost's ceil(L) steps).
TEST(NelderMeadTest, SteppedSurfaceFindsLowPlateau) {
  auto f = [](const std::vector<double>& x) {
    return std::floor(std::fabs(x[0])) + 0.001 * x[0] * x[0];
  };
  Result r = NelderMeadMinimize(f, {7.3}, Box({-10}, {10}));
  EXPECT_LT(std::fabs(r.x[0]), 1.0);  // reached the [-1, 1) plateau
}

}  // namespace
}  // namespace endure::solver
