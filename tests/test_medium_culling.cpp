// The neighbor-list medium: audibility neighbor lists, the incremental
// Kahan power accounting, and the spatial-grid topology setup. A
// brute-force power oracle re-sums every on-air sender after each
// transmission start and end; with the audibility floor set, runs must
// match floor-off runs within a tight tolerance on end-to-end metrics
// over random topologies. Also the unified bounds checking across the
// medium's public surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/propagation/units.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;
using namespace csense::mac;
using csense::capacity::rate_by_mbps;

struct recorder final : medium_listener {
    int channel_updates = 0;
    int preambles = 0;
    std::vector<std::pair<node_id, bool>> received;  ///< (src, decoded)

    void on_channel_update(double) override { ++channel_updates; }
    void on_preamble(const frame&, double, sim::time_us) override {
        ++preambles;
    }
    void on_frame_received(const frame& f, double, double,
                           bool decoded) override {
        received.emplace_back(f.src, decoded);
    }
    void on_tx_complete(const frame&) override {}
};

frame data_frame(node_id src, double mbps, int bytes = 1400) {
    frame f;
    f.kind = frame_kind::data;
    f.src = src;
    f.dst = broadcast_id;
    f.bytes = bytes;
    f.rate = &rate_by_mbps(mbps);
    return f;
}

TEST(MediumValidation, PublicSurfaceChecksNodeIdsUniformly) {
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    medium air(sim, radio_config{}, errors, 1);
    recorder a, b;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    air.set_link_gain_db(na, nb, -60.0);

    EXPECT_THROW(air.external_power_dbm(2), std::invalid_argument);
    EXPECT_THROW(air.transmitting(2), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(na, 2), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(2, nb), std::invalid_argument);
    EXPECT_THROW(air.link_gain_db(na, na), std::invalid_argument);
    EXPECT_THROW(air.rx_power_dbm(na, 2), std::invalid_argument);
    EXPECT_THROW(air.set_link_gain_db(na, 2, -60.0), std::invalid_argument);
    EXPECT_THROW(air.neighbor_count(2), std::invalid_argument);
    EXPECT_THROW(air.start_transmission(2, data_frame(2, 6.0), true),
                 std::invalid_argument);
    // Valid ids keep working.
    EXPECT_FALSE(air.transmitting(na));
    EXPECT_DOUBLE_EQ(air.link_gain_db(na, nb), -60.0);
}

TEST(MediumValidation, AudibilityFloorMustSitBelowCcaThresholds) {
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = radio.preamble_threshold_dbm + 1.0;
    EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument);
    // A floor below the preamble sensitivity but above a lowered energy
    // threshold would silently deafen energy CCA to real carriers.
    radio.cs_threshold_dbm = -105.0;
    radio.audibility_floor_dbm = -100.0;
    EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument);
    radio.cs_threshold_dbm = -82.0;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;
    EXPECT_NO_THROW(medium(sim, radio, errors, 1));
}

TEST(MediumValidation, AdaptiveClampMustStayAboveTheFloor) {
    // The medium cannot see per-node override ranges, so run_multi_pair
    // enforces the floor invariant for the adaptive clamp itself.
    stats::rng gen(4);
    const auto topology = mac::sample_multi_pair_topology(2, 100.0, 10.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(6.0);
    config.radio.audibility_floor_dbm = config.radio.noise_floor_dbm - 20.0;
    config.adapt.policy = cs_adapt_policy::target_busy;
    config.adapt.min_threshold_dbm = config.radio.audibility_floor_dbm - 5.0;
    EXPECT_THROW(mac::run_multi_pair(topology, config), std::invalid_argument);
    config.adapt.min_threshold_dbm = -95.0;  // back above the floor
    EXPECT_NO_THROW(mac::run_multi_pair(topology, config));
}

TEST(MediumCulling, SubFloorLinksAreCulledAndNeighborsStillServed) {
    sim::simulator sim;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;  // -115 dBm
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 7);
    recorder a, b, c;
    const auto na = air.add_node(a);
    const auto nb = air.add_node(b);
    const auto nc = air.add_node(c);
    air.set_link_gain_db(na, nb, -60.0);   // audible, decodable
    air.set_link_gain_db(na, nc, -140.0);  // -125 dBm rx: below the floor
    air.set_link_gain_db(nb, nc, -140.0);

    sim.schedule_in(0.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.run_until(100.0);

    EXPECT_EQ(air.neighbor_count(na), 1u);
    EXPECT_EQ(air.neighbor_count(nb), 1u);
    EXPECT_EQ(air.neighbor_count(nc), 0u);
    // Mid-frame: the neighbor sees the power, the culled node sees
    // silence (its sub-floor rx power is modeled as exactly zero).
    EXPECT_NEAR(air.external_power_dbm(nb), radio.tx_power_dbm - 60.0, 0.1);
    EXPECT_DOUBLE_EQ(air.external_power_dbm(nc), radio.noise_floor_dbm);

    sim.run_until(5000.0);  // frame ends (~1.9 ms at 6 Mb/s)
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].first, na);
    EXPECT_TRUE(b.received[0].second);
    EXPECT_GT(b.channel_updates, 0);
    EXPECT_GT(b.preambles, 0);
    EXPECT_EQ(c.channel_updates, 0);
    EXPECT_EQ(c.preambles, 0);
    EXPECT_TRUE(c.received.empty());
    // When the air went quiet the neighbor's power returned exactly to
    // the noise floor (the incremental sum resets when the audible set
    // empties - no drift).
    EXPECT_DOUBLE_EQ(air.external_power_dbm(nb), radio.noise_floor_dbm);
}

/// Shared setup for the end-to-end equivalence runs: a sparse arena
/// where the audibility floor actually removes most links.
multi_pair_config sparse_arena_config(bool culled) {
    multi_pair_config config;
    config.rate = &rate_by_mbps(6.0);
    config.alpha = 4.0;  // urban-ish falloff so the audible range is finite
    config.duration_us = 3e5;
    if (culled) {
        config.radio.audibility_floor_dbm =
            config.radio.noise_floor_dbm - 20.0;
    }
    return config;
}

TEST(MediumCulling, EndToEndMetricsMatchDenseWithinTolerance) {
    // On random N=20 topologies, the floor-on medium's throughput and
    // fairness must agree with the floor-off medium (every link audible)
    // within a tolerance set by the dropped sub-floor power (< 0.2 dB of
    // aggregate interference in this arena). The runs are stochastic
    // replays of the same seed, so residual divergence comes only from
    // rare PER draws flipped by the tiny SINR shift.
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
        stats::rng gen(seed);
        const auto topology = mac::sample_multi_pair_topology(
            /*pairs=*/20, /*arena_m=*/400.0, /*rmax_m=*/10.0, gen);
        auto floor_off = sparse_arena_config(false);
        auto culled = sparse_arena_config(true);
        floor_off.seed = culled.seed = 1000 + seed;
        const auto floor_off_run = mac::run_multi_pair(topology, floor_off);
        const auto culled_run = mac::run_multi_pair(topology, culled);
        ASSERT_GT(floor_off_run.total_pps, 0.0);
        EXPECT_NEAR(culled_run.total_pps / floor_off_run.total_pps, 1.0, 0.05)
            << "seed " << seed;
        EXPECT_NEAR(culled_run.jain_index(), floor_off_run.jain_index(), 0.05)
            << "seed " << seed;
        // Same transmission counters: backoff streams are per-node and
        // the floor-on CCA sees the same super-threshold power.
        EXPECT_NEAR(static_cast<double>(culled_run.counters.transmissions),
                    static_cast<double>(floor_off_run.counters.transmissions),
                    0.02 * static_cast<double>(floor_off_run.counters.transmissions))
            << "seed " << seed;
    }
}

TEST(MediumCulling, FadingWidensTheCullCriterionByThreeSigma) {
    // With fading on, a link whose *mean* power sits below the floor can
    // still fade above a CCA threshold on some frames; the freeze must
    // keep any link within the 3-sigma fade allowance of the floor.
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = radio.noise_floor_dbm - 20.0;  // -115 dBm
    // Mean rx power -118 dBm: below the plain floor...
    const double gain_db = -118.0 - radio.tx_power_dbm;

    sim::simulator sim_unfaded;
    medium unfaded(sim_unfaded, radio, errors, 7);
    recorder a1, b1;
    const auto ua = unfaded.add_node(a1);
    const auto ub = unfaded.add_node(b1);
    unfaded.set_link_gain_db(ua, ub, gain_db);
    sim_unfaded.schedule_in(0.0, [&] {
        unfaded.start_transmission(ua, data_frame(ua, 6.0), true);
    });
    sim_unfaded.run_until(10.0);
    EXPECT_EQ(unfaded.neighbor_count(ub), 0u) << "culled without fading";

    sim::simulator sim_faded;
    radio.fading_sigma_db = 2.0;  // effective floor: -121 dBm
    medium faded(sim_faded, radio, errors, 7);
    recorder a2, b2;
    const auto fa = faded.add_node(a2);
    const auto fb = faded.add_node(b2);
    faded.set_link_gain_db(fa, fb, gain_db);
    sim_faded.schedule_in(0.0, [&] {
        faded.start_transmission(fa, data_frame(fa, 6.0), true);
    });
    sim_faded.run_until(10.0);
    EXPECT_EQ(faded.neighbor_count(fb), 1u)
        << "a link within 3 sigma of the floor must stay audible";
}

TEST(MediumCulling, EndToEndMetricsMatchDenseWithFadingEnabled) {
    // With fading the two configs consume RNG differently (one fade draw
    // per neighbor, and the floor removes neighbors), so runs diverge
    // stochastically rather than only by the dropped sub-floor power -
    // but thanks to the 3-sigma cull allowance the aggregate metrics
    // must still agree.
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
        stats::rng gen(seed);
        const auto topology = mac::sample_multi_pair_topology(20, 400.0, 10.0, gen);
        auto floor_off = sparse_arena_config(false);
        auto culled = sparse_arena_config(true);
        floor_off.radio.fading_sigma_db = culled.radio.fading_sigma_db = 3.0;
        floor_off.seed = culled.seed = 1000 + seed;
        const auto floor_off_run = mac::run_multi_pair(topology, floor_off);
        const auto culled_run = mac::run_multi_pair(topology, culled);
        ASSERT_GT(floor_off_run.total_pps, 0.0);
        EXPECT_NEAR(culled_run.total_pps / floor_off_run.total_pps, 1.0, 0.05)
            << "seed " << seed;
        EXPECT_NEAR(culled_run.jain_index(), floor_off_run.jain_index(), 0.05)
            << "seed " << seed;
    }
}

TEST(MediumCulling, CulledRunsAreDeterministicAcrossRefreshCadences) {
    stats::rng gen(5);
    const auto topology = mac::sample_multi_pair_topology(20, 400.0, 10.0, gen);
    auto config = sparse_arena_config(true);
    config.duration_us = 2e5;

    const auto once = mac::run_multi_pair(topology, config);
    const auto again = mac::run_multi_pair(topology, config);
    EXPECT_EQ(once.per_pair_pps, again.per_pair_pps)
        << "same seed must reproduce the culled run bit-for-bit";
    EXPECT_EQ(once.counters.transmissions, again.counters.transmissions);

    // An aggressive refresh cadence recomputes the sums exactly; with
    // compensated accounting the refresh must be a no-op at metric level
    // (it only exists to bound drift over *much* longer runs).
    auto frequent = config;
    frequent.radio.power_refresh_interval = 16;
    auto never = config;
    never.radio.power_refresh_interval = 0;
    const auto frequent_run = mac::run_multi_pair(topology, frequent);
    const auto never_run = mac::run_multi_pair(topology, never);
    EXPECT_EQ(frequent_run.per_pair_pps, never_run.per_pair_pps)
        << "refresh cadence leaked into short-run results: the "
           "compensated sums must already be exact at this scale";
}

TEST(MediumCulling, GridLinkingMatchesBruteForce) {
    stats::rng gen(9);
    const auto topology = mac::sample_multi_pair_topology(60, 600.0, 15.0, gen);
    const auto config = sparse_arena_config(true);

    const auto grid_pairs = mac::audible_link_pairs(topology, config);
    std::set<std::pair<node_id, node_id>> grid_set(grid_pairs.begin(),
                                                   grid_pairs.end());
    EXPECT_EQ(grid_set.size(), grid_pairs.size()) << "duplicate pairs";

    // Brute-force reference over the flattened node order (sender i is
    // node 2i, receiver i is node 2i + 1).
    std::vector<multi_pair_topology::position> nodes;
    for (std::size_t i = 0; i < topology.pairs(); ++i) {
        nodes.push_back(topology.senders[i]);
        nodes.push_back(topology.receivers[i]);
    }
    std::size_t audible = 0, total = 0;
    for (node_id a = 0; a < nodes.size(); ++a) {
        for (node_id b = a + 1; b < nodes.size(); ++b) {
            ++total;
            const double dist = std::hypot(nodes[a].x - nodes[b].x,
                                           nodes[a].y - nodes[b].y);
            const double rx_dbm =
                config.radio.tx_power_dbm + config.gain_db(dist);
            if (rx_dbm >= config.radio.audibility_floor_dbm) {
                ++audible;
                EXPECT_TRUE(grid_set.count({a, b}))
                    << "grid dropped audible pair " << a << "," << b
                    << " at distance " << dist;
            }
        }
    }
    EXPECT_GT(audible, 0u);
    EXPECT_LT(grid_set.size(), total)
        << "the floor should cull most of this sparse arena";
    // Over-inclusion is allowed only in a hair's width at the range
    // boundary; anything more means the grid is not actually culling.
    EXPECT_LE(grid_set.size(), audible + 2);
}

TEST(MediumCulling, DefaultConfigKeepsAllNeighbors) {
    // camp01-camp04 and the testbed scenarios construct their radios
    // from the defaults: the floor stays disabled there, so every link
    // with a gain set is audible and each row holds all N - 1 others.
    EXPECT_FALSE(radio_config{}.audibility_enabled());
    EXPECT_FALSE(multi_pair_config{}.radio.audibility_enabled());
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    medium air(sim, radio_config{}, errors, 1);
    constexpr node_id nodes = 6;
    std::vector<recorder> listeners(nodes);
    for (auto& l : listeners) air.add_node(l);
    for (node_id a = 0; a < nodes; ++a) {
        for (node_id b = a + 1; b < nodes; ++b) {
            // Far below any threshold: audible only because the floor
            // is off.
            air.set_link_gain_db(a, b, -400.0 - a - b);
        }
    }
    sim.schedule_in(0.0, [&] {
        air.start_transmission(0, data_frame(0, 6.0), true);
    });
    sim.run_until(10.0);
    for (node_id n = 0; n < nodes; ++n) {
        EXPECT_EQ(air.neighbor_count(n), nodes - 1) << "node " << n;
    }
}

/// Listener that reports its own transmission ends to the test.
struct tx_end_probe final : medium_listener {
    std::function<void()> on_end;

    void on_channel_update(double) override {}
    void on_preamble(const frame&, double, sim::time_us) override {}
    void on_frame_received(const frame&, double, double, bool) override {}
    void on_tx_complete(const frame&) override { on_end(); }
};

/// Drives random overlapping broadcasts on N = 20 nodes with uniformly
/// random link gains and, after every transmission start and end,
/// compares medium::external_power_dbm at every node against a
/// brute-force sum over the senders on air.
void check_power_against_oracle(double floor_dbm, std::uint64_t seed) {
    constexpr node_id nodes = 20;
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = floor_dbm;
    medium air(sim, radio, errors, seed);
    std::vector<tx_end_probe> probes(nodes);
    for (auto& p : probes) air.add_node(p);

    stats::rng gen(seed);
    std::vector<std::vector<double>> rx_mw(nodes, std::vector<double>(nodes));
    for (node_id a = 0; a < nodes; ++a) {
        for (node_id b = a + 1; b < nodes; ++b) {
            const double gain_db = gen.uniform(-150.0, -60.0);
            air.set_link_gain_db(a, b, gain_db);
            rx_mw[a][b] = rx_mw[b][a] =
                propagation::dbm_to_mw(radio.tx_power_dbm + gain_db);
        }
    }
    const double noise_mw = propagation::dbm_to_mw(radio.noise_floor_dbm);
    const double floor_mw = radio.audibility_enabled()
                                ? propagation::dbm_to_mw(floor_dbm)
                                : 0.0;
    // Each culled link carries less than the floor, so the full sum can
    // exceed the kept one by at most this much (0 with the floor off).
    const double max_dropped_db =
        10.0 * std::log10(1.0 + (nodes - 1) * floor_mw / noise_mw);

    std::vector<bool> on_air(nodes, false);
    int checks = 0;
    const auto check = [&] {
        for (node_id n = 0; n < nodes; ++n) {
            // Oracle: every on-air sender's power at n, and the part of
            // it the floor keeps.
            double all_mw = noise_mw;
            double kept_mw = noise_mw;
            for (node_id s = 0; s < nodes; ++s) {
                if (s == n || !on_air[s]) continue;
                all_mw += rx_mw[s][n];
                if (rx_mw[s][n] >= floor_mw) kept_mw += rx_mw[s][n];
            }
            const double got_dbm = air.external_power_dbm(n);
            EXPECT_NEAR(got_dbm, propagation::mw_to_dbm(kept_mw), 1e-9)
                << "node " << n << " at t=" << sim.now();
            EXPECT_NEAR(got_dbm, propagation::mw_to_dbm(all_mw),
                        max_dropped_db + 1e-9)
                << "node " << n << " at t=" << sim.now();
        }
        ++checks;
    };
    for (node_id n = 0; n < nodes; ++n) {
        probes[n].on_end = [&, n] {
            on_air[n] = false;
            check();
        };
    }
    for (int k = 0; k < 300; ++k) {
        const double at = gen.uniform(0.0, 20'000.0);
        const auto src = static_cast<node_id>(gen.uniform_int(nodes));
        const int bytes = 100 + static_cast<int>(gen.uniform_int(1400));
        sim.schedule_at(at, [&, src, bytes] {
            if (air.transmitting(src)) return;
            air.start_transmission(src, data_frame(src, 6.0, bytes), true);
            on_air[src] = true;
            check();
        });
    }
    sim.run_until(40'000.0);
    EXPECT_GT(checks, 300) << "too few starts landed on idle senders";
    for (node_id n = 0; n < nodes; ++n) EXPECT_FALSE(on_air[n]);

    std::size_t links = 0;
    for (node_id n = 0; n < nodes; ++n) links += air.neighbor_count(n);
    if (radio.audibility_enabled()) {
        EXPECT_LT(links, std::size_t{nodes} * (nodes - 1))
            << "the floor should cull some of these links";
    } else {
        EXPECT_EQ(links, std::size_t{nodes} * (nodes - 1));
    }
}

TEST(MediumCulling, ExternalPowerMatchesBruteForceOracleFloorOff) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        check_power_against_oracle(audibility_floor_disabled_dbm, seed);
    }
}

TEST(MediumCulling, ExternalPowerMatchesBruteForceOracleFloorOn) {
    const double floor_dbm = radio_config{}.noise_floor_dbm - 20.0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        check_power_against_oracle(floor_dbm, seed);
    }
}

TEST(MediumCulling, RxPowerExactlyAtCsThresholdCountsAsBusyStart) {
    // Energy CCA's rule is power >= threshold; the medium compares in mW,
    // and a link whose rx power equals cs_threshold_dbm exactly must
    // still count as busy. A hair below, it must not.
    const capacity::logistic_per_model errors;
    const radio_config radio;
    const auto busy_starts = [&](double rx_dbm) {
        sim::simulator sim;
        medium air(sim, radio, errors, 3);
        recorder a, b;
        const auto na = air.add_node(a);
        const auto nb = air.add_node(b);
        air.set_link_gain_db(na, nb, rx_dbm - radio.tx_power_dbm);
        sim.schedule_in(0.0, [&] {
            air.start_transmission(na, data_frame(na, 6.0), true);
        });
        sim.schedule_in(100.0, [&] {
            air.start_transmission(nb, data_frame(nb, 6.0), true);
        });
        sim.run_until(200.0);
        return air.counters().busy_starts;
    };
    ASSERT_EQ(radio.tx_power_dbm + (radio.cs_threshold_dbm - radio.tx_power_dbm),
              radio.cs_threshold_dbm)
        << "the boundary gain must reproduce the threshold exactly";
    EXPECT_EQ(busy_starts(radio.cs_threshold_dbm), 1u);
    EXPECT_EQ(busy_starts(radio.cs_threshold_dbm - 1e-6), 0u);
}

TEST(MediumCulling, DisabledFloorReturnsAllPairs) {
    stats::rng gen(3);
    const auto topology = mac::sample_multi_pair_topology(5, 100.0, 10.0, gen);
    const auto config = sparse_arena_config(false);
    const auto pairs = mac::audible_link_pairs(topology, config);
    EXPECT_EQ(pairs.size(), 10u * 9u / 2u);
}

}  // namespace
