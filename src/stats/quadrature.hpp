// Deterministic numerical integration. The carrier-sense model averages
// link capacity over receiver positions (a disc) and over lognormal
// shadowing (Gaussian axes). We use Gauss-Legendre quadrature radially,
// the (spectrally accurate) periodic rectangle rule in angle, and
// Gauss-Hermite quadrature for expectations over normal deviates.
#pragma once

#include <functional>
#include <vector>

namespace csense::stats {

/// Nodes and weights of an n-point quadrature rule.
struct quadrature_rule {
    std::vector<double> nodes;
    std::vector<double> weights;
};

/// n-point Gauss-Legendre rule on [-1, 1]. Exact for polynomials of
/// degree <= 2n-1. Computed by Newton iteration on Legendre polynomials;
/// results are cached per n.
const quadrature_rule& gauss_legendre(int n);

/// n-point Gauss-Hermite rule with weight exp(-x^2) on (-inf, inf).
/// Cached per n.
const quadrature_rule& gauss_hermite(int n);

/// Integrate f over [a, b] with an n-point Gauss-Legendre rule.
double integrate(const std::function<double(double)>& f, double a, double b,
                 int n = 64);

/// E[f(Z)] for Z ~ N(0,1) using an n-point Gauss-Hermite rule.
double normal_expectation(const std::function<double(double)>& f, int n = 24);

/// Average of f(r, theta) over a disc of radius R, i.e.
/// (1 / (pi R^2)) * Int_0^R Int_0^{2pi} f(r, theta) r dtheta dr,
/// using nr Gauss-Legendre radial nodes and ntheta angular samples.
double disc_average(const std::function<double(double, double)>& f, double radius,
                    int nr = 48, int ntheta = 64);

}  // namespace csense::stats
