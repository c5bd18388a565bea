// Quadrature correctness: Gauss-Legendre polynomial exactness,
// Gauss-Hermite normal moments, and the disc-average operator the
// capacity model is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/stats/quadrature.hpp"

namespace {

using namespace csense::stats;

class GaussLegendreOrder : public ::testing::TestWithParam<int> {};

TEST_P(GaussLegendreOrder, ExactForPolynomials) {
    const int n = GetParam();
    // Exact for degree <= 2n - 1; check x^(2n-1) and x^(2n-2) on [0, 1].
    const int degree = 2 * n - 1;
    const double exact_odd = 1.0 / (degree + 1.0);
    const double value_odd = integrate(
        [&](double x) { return std::pow(x, degree); }, 0.0, 1.0, n);
    EXPECT_NEAR(value_odd, exact_odd, 1e-12) << "n = " << n;
    const double exact_even = 1.0 / degree;
    const double value_even = integrate(
        [&](double x) { return std::pow(x, degree - 1); }, 0.0, 1.0, n);
    EXPECT_NEAR(value_even, exact_even, 1e-12) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussLegendreOrder,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(GaussLegendre, WeightsSumToTwo) {
    for (int n : {1, 3, 7, 48}) {
        const auto& rule = gauss_legendre(n);
        double sum = 0.0;
        for (double w : rule.weights) sum += w;
        EXPECT_NEAR(sum, 2.0, 1e-12) << "n = " << n;
    }
}

TEST(GaussLegendre, NodesSymmetricAndSorted) {
    const auto& rule = gauss_legendre(16);
    for (int i = 0; i < 8; ++i) {
        EXPECT_NEAR(rule.nodes[i], -rule.nodes[15 - i], 1e-13);
    }
    for (int i = 1; i < 16; ++i) {
        EXPECT_GT(rule.nodes[i], rule.nodes[i - 1]);
    }
}

TEST(GaussLegendre, RejectsBadOrder) {
    EXPECT_THROW(gauss_legendre(0), std::invalid_argument);
}

TEST(Integrate, SinOverHalfPeriod) {
    const double value = integrate([](double x) { return std::sin(x); }, 0.0,
                                   std::numbers::pi, 32);
    EXPECT_NEAR(value, 2.0, 1e-12);
}

TEST(GaussHermite, NormalMoments) {
    // E[Z^k] for Z ~ N(0,1): 1, 0, 1, 0, 3, 0, 15.
    const double m0 = normal_expectation([](double) { return 1.0; });
    const double m1 = normal_expectation([](double z) { return z; });
    const double m2 = normal_expectation([](double z) { return z * z; });
    const double m4 = normal_expectation([](double z) { return z * z * z * z; });
    const double m6 = normal_expectation(
        [](double z) { return z * z * z * z * z * z; });
    EXPECT_NEAR(m0, 1.0, 1e-12);
    EXPECT_NEAR(m1, 0.0, 1e-12);
    EXPECT_NEAR(m2, 1.0, 1e-10);
    EXPECT_NEAR(m4, 3.0, 1e-9);
    EXPECT_NEAR(m6, 15.0, 1e-8);
}

TEST(GaussHermite, LognormalMean) {
    // E[e^(sZ)] = e^(s^2/2).
    for (double s : {0.5, 1.0, 1.8}) {
        const double value =
            normal_expectation([&](double z) { return std::exp(s * z); }, 32);
        EXPECT_NEAR(value, std::exp(0.5 * s * s), 1e-6) << "s = " << s;
    }
}

TEST(DiscAverage, ConstantIsItself) {
    EXPECT_NEAR(disc_average([](double, double) { return 3.5; }, 10.0), 3.5,
                1e-12);
}

TEST(DiscAverage, RadialSquare) {
    // Average of r^2 over a disc of radius R is R^2 / 2.
    const double radius = 7.0;
    EXPECT_NEAR(disc_average([](double r, double) { return r * r; }, radius),
                radius * radius / 2.0, 1e-10);
}

TEST(DiscAverage, OddAngularTermsVanish) {
    EXPECT_NEAR(disc_average([](double r, double t) { return r * std::cos(t); },
                             5.0),
                0.0, 1e-12);
    EXPECT_NEAR(disc_average([](double r, double t) { return r * std::sin(t); },
                             5.0),
                0.0, 1e-12);
}

TEST(DiscAverage, AngularHarmonicsExact) {
    // cos^2 averages to 1/2 regardless of radius.
    EXPECT_NEAR(disc_average(
                    [](double, double t) { return std::cos(t) * std::cos(t); },
                    3.0),
                0.5, 1e-12);
}

TEST(DiscAverage, RejectsBadRadius) {
    EXPECT_THROW(disc_average([](double, double) { return 1.0; }, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(disc_average([](double, double) { return 1.0; }, -2.0),
                 std::invalid_argument);
}

}  // namespace
