// Rate adaptation: ARF's success/failure counters and the thesis'
// best-fixed-rate oracle.
#include <gtest/gtest.h>

#include "src/capacity/rate_adaptation.hpp"

namespace {

using namespace csense::capacity;

TEST(Arf, ClimbsOnSuccess) {
    arf adapt(ofdm_rates(), 3, 2);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
    for (int i = 0; i < 3; ++i) adapt.report(true);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 9.0);
    for (int i = 0; i < 3 * 6; ++i) adapt.report(true);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 54.0);
    // Saturates at the top.
    for (int i = 0; i < 10; ++i) adapt.report(true);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 54.0);
}

TEST(Arf, FallsOnFailure) {
    arf adapt(ofdm_rates(), 3, 2);
    for (int i = 0; i < 6; ++i) adapt.report(true);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 12.0);
    adapt.report(false);
    adapt.report(false);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 9.0);
    // Never below the floor.
    for (int i = 0; i < 20; ++i) adapt.report(false);
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
}

TEST(Arf, MixedTrafficResetsCounters) {
    arf adapt(ofdm_rates(), 3, 2);
    // success, success, fail, ... never 3 in a row: stays at the bottom.
    for (int i = 0; i < 30; ++i) {
        adapt.report((i % 3) != 2);
    }
    EXPECT_DOUBLE_EQ(adapt.next_rate().mbps, 6.0);
}

TEST(Arf, RejectsBadConfig) {
    EXPECT_THROW(arf({}, 3, 2), std::invalid_argument);
    EXPECT_THROW(arf(ofdm_rates(), 0, 2), std::invalid_argument);
}

TEST(Oracle, PicksBaseRateAtLowSnr) {
    const logistic_per_model model;
    const auto& best =
        best_fixed_rate_oracle(thesis_sweep_rates(), model, 3.5, 1400);
    EXPECT_DOUBLE_EQ(best.mbps, 6.0);
}

TEST(Oracle, PicksTopRateAtHighSnr) {
    const logistic_per_model model;
    const auto& best =
        best_fixed_rate_oracle(thesis_sweep_rates(), model, 35.0, 1400);
    EXPECT_DOUBLE_EQ(best.mbps, 24.0);
    const auto& full =
        best_fixed_rate_oracle(ofdm_rates(), model, 35.0, 1400);
    EXPECT_DOUBLE_EQ(full.mbps, 54.0);
}

TEST(Oracle, MonotoneInSnrAndGoodputOptimal) {
    const logistic_per_model model(1.0);
    double prev_mbps = 0.0;
    for (double snr = 0.0; snr <= 30.0; snr += 0.5) {
        const auto& best = best_fixed_rate_oracle(ofdm_rates(), model, snr,
                                                  1400);
        EXPECT_GE(best.mbps, prev_mbps) << "snr = " << snr;
        prev_mbps = best.mbps;
        // The oracle's pick never has lower goodput than the naive
        // SNR-threshold table's pick.
        const auto& naive = best_rate_for_snr(snr);
        const double oracle_goodput =
            saturated_broadcast_pps(best, 1400) *
            model.delivery_rate(best, snr, 1400);
        const double naive_goodput =
            saturated_broadcast_pps(naive, 1400) *
            model.delivery_rate(naive, snr, 1400);
        EXPECT_GE(oracle_goodput, naive_goodput - 1e-9) << "snr = " << snr;
    }
}

TEST(Oracle, RejectsEmptyTable) {
    const logistic_per_model model;
    EXPECT_THROW(best_fixed_rate_oracle({}, model, 10.0, 1400),
                 std::invalid_argument);
}

}  // namespace
