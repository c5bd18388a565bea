#include "src/capacity/rate_adaptation.hpp"

#include <stdexcept>

namespace csense::capacity {

arf::arf(const std::vector<phy_rate>& table, int up_after, int down_after)
    : table_(table), up_after_(up_after), down_after_(down_after) {
    if (table_.empty()) throw std::invalid_argument("arf: empty rate table");
    if (up_after < 1 || down_after < 1) {
        throw std::invalid_argument("arf: thresholds must be >= 1");
    }
}

void arf::report(bool delivered) noexcept {
    if (delivered) {
        failures_ = 0;
        if (++successes_ >= up_after_ && index_ + 1 < table_.size()) {
            ++index_;
            successes_ = 0;
        }
    } else {
        successes_ = 0;
        if (++failures_ >= down_after_ && index_ > 0) {
            --index_;
            failures_ = 0;
        }
    }
}

const phy_rate& best_fixed_rate_oracle(const std::vector<phy_rate>& table,
                                       const error_model& model, double sinr_db,
                                       int payload_bytes, int cw_min) {
    if (table.empty()) {
        throw std::invalid_argument("best_fixed_rate_oracle: empty table");
    }
    const phy_rate* best = &table.front();
    double best_goodput = -1.0;
    for (const auto& rate : table) {
        const double pps = saturated_broadcast_pps(rate, payload_bytes, cw_min);
        const double goodput =
            pps * model.delivery_rate(rate, sinr_db, payload_bytes);
        if (goodput > best_goodput) {
            best_goodput = goodput;
            best = &rate;
        }
    }
    return *best;
}

}  // namespace csense::capacity
