// Compensated accumulation (src/stats/kahan.hpp): the medium's
// incremental power accounting leans on four properties - accuracy
// under large/small mixing, exact cancellation of add/sub pairs beyond
// what plain doubles give, no drift over long frame-edge churn, and
// reset semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"

namespace {

using csense::stats::kahan_sum;

TEST(KahanSum, RecoversWhatPlainSummationLoses) {
    // 1 + 1e16 - 1e16 repeated: a plain double sum drops the 1s.
    kahan_sum k;
    double plain = 0.0;
    for (int i = 0; i < 1000; ++i) {
        k.add(1.0);
        k.add(1e16);
        k.sub(1e16);
        plain += 1.0;
        plain += 1e16;
        plain -= 1e16;
    }
    EXPECT_DOUBLE_EQ(k.value(), 1000.0);
    EXPECT_NE(plain, 1000.0) << "if plain summation were exact here the "
                                "test would prove nothing";
}

TEST(KahanSum, AddendLargerThanSum) {
    // The Neumaier branch: compensation must also work when |x| > |sum|.
    kahan_sum k;
    k.add(1.0);
    k.add(1e100);
    k.sub(1e100);
    EXPECT_DOUBLE_EQ(k.value(), 1.0);
}

TEST(KahanSum, ManyTransmitterChurnStaysNearExact) {
    // The medium's access pattern: powers spanning ~12 orders of
    // magnitude joining and leaving in random order. After removing
    // everything the compensated value must return to ~0 at a tolerance
    // far tighter than the smallest power involved.
    csense::stats::rng gen(42);
    std::vector<double> powers;
    for (int i = 0; i < 4096; ++i) {
        powers.push_back(std::pow(10.0, gen.uniform(-12.0, 0.0)));
    }
    kahan_sum k;
    for (const double p : powers) k.add(p);
    for (const double p : powers) k.sub(p);
    EXPECT_LT(std::abs(k.value()), 1e-24);
}

TEST(KahanSum, FrameEdgeChurnStaysWithinAnUlp) {
    // The medium's sums are never rebuilt: only the compensation and the
    // reset on an empty audible set bound their error. Here one weak
    // frame stays on the air throughout, so the reset never fires, and
    // 10^7 seeded start/end edges of link powers from -115 to 0 dBm move
    // the sum across 11 decades. An __int128 count of 2^-100 mW quanta
    // is an exact oracle: every double >= 2^-48 mW is a whole number of
    // quanta, and 2^26 frames at 1 mW would still fit.
    __extension__ using exact_sum = __int128;
    constexpr int quantum_exp = -100;
    const auto quanta = [](double mw) {
        return static_cast<exact_sum>(std::ldexp(mw, -quantum_exp));
    };

    csense::stats::rng gen(2009);
    constexpr std::size_t links = 1024;
    constexpr std::size_t max_on_air = 128;
    std::vector<double> power_mw(links);
    for (double& p : power_mw) p = std::pow(10.0, gen.uniform(-115.0, 0.0) / 10.0);
    power_mw[0] = std::pow(10.0, -115.0 / 10.0);  // the frame always on air
    ASSERT_GE(*std::min_element(power_mw.begin(), power_mw.end()),
              std::ldexp(1.0, -48));

    kahan_sum k;
    exact_sum exact = 0;
    k.add(power_mw[0]);
    exact += quanta(power_mw[0]);
    std::vector<std::size_t> on_air;  // links 1.. currently transmitting
    std::vector<char> is_on(links, 0);
    constexpr int edges = 10'000'000;
    for (int e = 0; e < edges; ++e) {
        const bool start = on_air.empty() ||
                           (on_air.size() < max_on_air && gen.uniform() < 0.5);
        if (start) {
            std::size_t i = 0;
            do {
                i = 1 + gen.uniform_int(links - 1);
            } while (is_on[i] != 0);
            is_on[i] = 1;
            on_air.push_back(i);
            k.add(power_mw[i]);
            exact += quanta(power_mw[i]);
        } else {
            const std::size_t slot = gen.uniform_int(on_air.size());
            const std::size_t i = on_air[slot];
            on_air[slot] = on_air.back();
            on_air.pop_back();
            is_on[i] = 0;
            k.sub(power_mw[i]);
            exact -= quanta(power_mw[i]);
        }
        // The exact sum rounded once to a double, and how many ulps the
        // compensated value sits from it.
        const double truth = std::ldexp(static_cast<double>(exact), quantum_exp);
        const double got = k.value();
        std::size_t ulps = 0;
        for (double v = truth; v != got && ulps <= 1; ++ulps) {
            v = std::nextafter(v, got);
        }
        ASSERT_LE(ulps, 1u) << "edge " << e << ": value " << got
                            << " vs exact " << truth << " with "
                            << on_air.size() + 1 << " frames on air";
    }
}

TEST(KahanSum, ResetClearsCompensation) {
    kahan_sum k;
    k.add(1e16);
    k.add(1.0);
    k.reset();
    EXPECT_EQ(k.value(), 0.0);
    k.add(2.5);
    EXPECT_DOUBLE_EQ(k.value(), 2.5);
    k.reset(7.0);
    EXPECT_EQ(k.value(), 7.0);
}

}  // namespace
