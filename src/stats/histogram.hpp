// Fixed-bin histogram with quantile queries, used to report throughput
// distributions and fairness in the testbed experiments.
#pragma once

#include <cstddef>
#include <vector>

namespace csense::stats {

/// Equal-width histogram over [lo, hi) with overflow/underflow buckets.
class histogram {
public:
    histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    std::size_t total() const noexcept { return total_; }
    std::size_t bin_count() const noexcept { return counts_.size(); }
    std::size_t underflow() const noexcept { return underflow_; }
    std::size_t overflow() const noexcept { return overflow_; }
    std::size_t count(std::size_t bin) const { return counts_.at(bin); }

    /// Fraction of all observations (including under/overflow) falling at
    /// or below x, computed from bin boundaries.
    double cdf(double x) const noexcept;

    /// Approximate q-quantile (0 <= q <= 1) by linear interpolation within
    /// the containing bin. Returns lo/hi for out-of-range tails.
    double quantile(double q) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
    std::size_t total_ = 0;
};

}  // namespace csense::stats
