// Bitrate adaptation. The thesis treats adaptation as the MAC's most
// important lever (§1) and assumes a "reasonable bitrate adaptation
// algorithm (such as [Bicket05])". We provide:
//  - arf: Auto Rate Fallback, the classic success/failure counter the
//    unsaturated campaigns run per sender (dcf_node holds one);
//  - best_fixed_rate_oracle: the thesis' own experimental method -
//    independently identify the best rate per run.
#pragma once

#include <cstddef>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"

namespace csense::capacity {

/// ARF: move up one rate after `up_after` consecutive successes, down one
/// after `down_after` consecutive failures. Starts at the table's first
/// (lowest) rate.
class arf {
public:
    explicit arf(const std::vector<phy_rate>& table = ofdm_rates(),
                 int up_after = 10, int down_after = 2);

    /// Rate to use for the next transmission.
    const phy_rate& next_rate() const noexcept { return table_[index_]; }

    /// Report whether the last transmission was delivered.
    void report(bool delivered) noexcept;

private:
    std::vector<phy_rate> table_;
    std::size_t index_ = 0;
    int up_after_;
    int down_after_;
    int successes_ = 0;
    int failures_ = 0;
};

/// The thesis' §4 oracle: evaluate the long-run delivery rate of every
/// rate in `table` at a fixed SINR using `model`, and return the rate
/// maximizing delivered packets/second of a saturated broadcast sender.
const phy_rate& best_fixed_rate_oracle(const std::vector<phy_rate>& table,
                                       const error_model& model, double sinr_db,
                                       int payload_bytes, int cw_min = 15);

}  // namespace csense::capacity
