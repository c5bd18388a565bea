// Compensated (Kahan-Neumaier) floating-point accumulation.
//
// The packet-level medium keeps a per-node running sum of external
// power in milliwatts that is incremented on every transmission start
// and decremented on every end. Over millions of events a plain double
// accumulator drifts (catastrophically so when large and small powers
// mix, exactly the cumulative-interference regime); the compensated sum
// keeps the error at a few ulps of the *current* value independent of
// how many updates have been applied, which is what makes incremental
// power accounting deterministic-and-accurate enough to replace full
// re-summation (src/mac/medium.cpp).
//
// Header-only and trivially copyable so it can live in hot per-node
// arrays.
#pragma once

#include <cmath>

namespace csense::stats {

/// Neumaier variant of Kahan summation: a running sum plus a running
/// compensation term. Unlike classic Kahan it stays accurate when the
/// addend is larger than the sum, which happens constantly when a
/// nearby transmitter joins a field of weak ones.
class kahan_sum {
public:
    constexpr kahan_sum() noexcept = default;
    explicit constexpr kahan_sum(double value) noexcept : sum_(value) {}

    /// Add `x` (use a negative value to subtract; `sub` reads better).
    void add(double x) noexcept {
        const double t = sum_ + x;
        if (std::abs(sum_) >= std::abs(x)) {
            compensation_ += (sum_ - t) + x;
        } else {
            compensation_ += (x - t) + sum_;
        }
        sum_ = t;
    }

    /// Subtract `x` from the running sum.
    void sub(double x) noexcept { add(-x); }

    /// Current compensated value.
    constexpr double value() const noexcept { return sum_ + compensation_; }

    /// Reset to exactly `value` with zero compensation. The medium calls
    /// this whenever a node's audible set empties (the sum is exactly
    /// zero then), so no rounding carries across quiet periods.
    constexpr void reset(double value = 0.0) noexcept {
        sum_ = value;
        compensation_ = 0.0;
    }

private:
    double sum_ = 0.0;
    double compensation_ = 0.0;
};

}  // namespace csense::stats
