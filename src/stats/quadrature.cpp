#include "src/stats/quadrature.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <stdexcept>

namespace csense::stats {
namespace {

quadrature_rule compute_gauss_legendre(int n) {
    if (n < 1) throw std::invalid_argument("gauss_legendre: n must be >= 1");
    quadrature_rule rule;
    rule.nodes.resize(n);
    rule.weights.resize(n);
    const int m = (n + 1) / 2;
    for (int i = 0; i < m; ++i) {
        // Chebyshev-based initial guess for the i-th root.
        double x = std::cos(std::numbers::pi * (i + 0.75) / (n + 0.5));
        double pp = 0.0;
        for (int iter = 0; iter < 100; ++iter) {
            // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
            double p0 = 1.0, p1 = 0.0;
            for (int j = 0; j < n; ++j) {
                const double p2 = p1;
                p1 = p0;
                p0 = ((2.0 * j + 1.0) * x * p1 - j * p2) / (j + 1.0);
            }
            pp = n * (x * p0 - p1) / (x * x - 1.0);
            const double dx = p0 / pp;
            x -= dx;
            if (std::abs(dx) < 1e-15) break;
        }
        rule.nodes[i] = -x;
        rule.nodes[n - 1 - i] = x;
        const double w = 2.0 / ((1.0 - x * x) * pp * pp);
        rule.weights[i] = w;
        rule.weights[n - 1 - i] = w;
    }
    return rule;
}

quadrature_rule compute_gauss_hermite(int n) {
    if (n < 1) throw std::invalid_argument("gauss_hermite: n must be >= 1");
    quadrature_rule rule;
    rule.nodes.resize(n);
    rule.weights.resize(n);
    const double pim4 = 1.0 / std::pow(std::numbers::pi, 0.25);
    const int m = (n + 1) / 2;
    double x = 0.0;
    for (int i = 0; i < m; ++i) {
        // Initial guesses (Numerical Recipes).
        if (i == 0) {
            x = std::sqrt(2.0 * n + 1.0) - 1.85575 * std::pow(2.0 * n + 1.0, -1.0 / 6.0);
        } else if (i == 1) {
            x -= 1.14 * std::pow(static_cast<double>(n), 0.426) / x;
        } else if (i == 2) {
            x = 1.86 * x - 0.86 * rule.nodes[n - 1];
        } else if (i == 3) {
            x = 1.91 * x - 0.91 * rule.nodes[n - 2];
        } else {
            x = 2.0 * x - rule.nodes[n - i + 1];
        }
        double pp = 0.0;
        for (int iter = 0; iter < 200; ++iter) {
            // Orthonormal Hermite recurrence.
            double p1 = pim4;
            double p2 = 0.0;
            for (int j = 0; j < n; ++j) {
                const double p3 = p2;
                p2 = p1;
                p1 = x * std::sqrt(2.0 / (j + 1.0)) * p2 -
                     std::sqrt(static_cast<double>(j) / (j + 1.0)) * p3;
            }
            pp = std::sqrt(2.0 * n) * p2;
            const double dx = p1 / pp;
            x -= dx;
            if (std::abs(dx) < 1e-14) break;
        }
        rule.nodes[n - 1 - i] = x;
        rule.nodes[i] = -x;
        const double w = 2.0 / (pp * pp);
        rule.weights[n - 1 - i] = w;
        rule.weights[i] = w;
    }
    return rule;
}

const quadrature_rule& cached_rule(int n, bool hermite) {
    // Reader/writer cache: after a rule's first computation every lookup
    // takes only the shared lock, so concurrent engine workers never
    // serialize here. std::map references are stable across inserts, so
    // handing out references under the shared lock is safe.
    static std::shared_mutex mutex;
    static std::map<std::pair<int, bool>, quadrature_rule> cache;
    const std::pair<int, bool> key{n, hermite};
    {
        std::shared_lock lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
    }
    std::unique_lock lock(mutex);
    auto [it, inserted] = cache.try_emplace(key);
    if (inserted) {
        it->second = hermite ? compute_gauss_hermite(n) : compute_gauss_legendre(n);
    }
    return it->second;
}

}  // namespace

const quadrature_rule& gauss_legendre(int n) { return cached_rule(n, false); }

const quadrature_rule& gauss_hermite(int n) { return cached_rule(n, true); }

double integrate(const std::function<double(double)>& f, double a, double b,
                 int n) {
    const auto& rule = gauss_legendre(n);
    const double half = 0.5 * (b - a);
    const double mid = 0.5 * (a + b);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        sum += rule.weights[i] * f(mid + half * rule.nodes[i]);
    }
    return half * sum;
}

double normal_expectation(const std::function<double(double)>& f, int n) {
    const auto& rule = gauss_hermite(n);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        sum += rule.weights[i] * f(std::numbers::sqrt2 * rule.nodes[i]);
    }
    return sum / std::sqrt(std::numbers::pi);
}

double disc_average(const std::function<double(double, double)>& f, double radius,
                    int nr, int ntheta) {
    if (radius <= 0.0) throw std::invalid_argument("disc_average: radius <= 0");
    const auto& radial = gauss_legendre(nr);
    double sum = 0.0;
    const double dtheta = 2.0 * std::numbers::pi / ntheta;
    for (int i = 0; i < nr; ++i) {
        // Map [-1,1] -> [0, radius].
        const double r = 0.5 * radius * (radial.nodes[i] + 1.0);
        const double wr = 0.5 * radius * radial.weights[i];
        double ring = 0.0;
        for (int j = 0; j < ntheta; ++j) {
            // Offset half a step so theta = 0 (the interferer axis, where
            // the integrand varies fastest) is straddled symmetrically.
            const double theta = dtheta * (j + 0.5);
            ring += f(r, theta);
        }
        sum += wr * r * ring * dtheta;
    }
    const double area = std::numbers::pi * radius * radius;
    return sum / area;
}

}  // namespace csense::stats
