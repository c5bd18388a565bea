#include "src/stats/histogram.hpp"

#include <cmath>
#include <stdexcept>

namespace csense::stats {

histogram::histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
    if (!(hi > lo) || bins == 0) {
        throw std::invalid_argument("histogram: requires hi > lo and bins > 0");
    }
}

void histogram::add(double x) noexcept {
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    auto bin = static_cast<std::size_t>((x - lo_) / width_);
    if (bin >= counts_.size()) bin = counts_.size() - 1;  // x just below hi_
    ++counts_[bin];
}

double histogram::cdf(double x) const noexcept {
    if (total_ == 0) return 0.0;
    if (x < lo_) return 0.0;
    std::size_t below = underflow_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double upper = lo_ + (static_cast<double>(i) + 1.0) * width_;
        if (upper <= x) {
            below += counts_[i];
        } else {
            break;
        }
    }
    if (x >= hi_) below += overflow_;
    return static_cast<double>(below) / static_cast<double>(total_);
}

double histogram::quantile(double q) const {
    if (total_ == 0) throw std::logic_error("histogram::quantile: empty");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("histogram::quantile: q");
    const double target = q * static_cast<double>(total_);
    double cumulative = static_cast<double>(underflow_);
    if (target <= cumulative) return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cumulative + static_cast<double>(counts_[i]);
        if (target <= next && counts_[i] > 0) {
            const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
            return lo_ + (static_cast<double>(i) + frac) * width_;
        }
        cumulative = next;
    }
    return hi_;
}

}  // namespace csense::stats
