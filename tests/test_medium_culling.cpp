// The neighbor-list medium: audibility neighbor lists, the incremental
// Kahan power accounting, and the spatial-grid topology setup. A
// brute-force power oracle re-sums every on-air sender after each
// transmission start and end; with the audibility floor set, runs must
// match floor-off runs within a tight tolerance on end-to-end metrics
// over random topologies. Also the unified bounds checking across the
// medium's public surface, and the log-free fan-out: energy CCA decided
// in mW against an exact threshold boundary and SINR tracked as the
// worst interference in mW, both pinned to their dBm-domain oracles,
// and the sorted link list: the order links are set in never changes a
// run, and setting a link again overwrites it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"
#include "src/propagation/units.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;
using namespace csense::mac;
using csense::capacity::rate_by_mbps;

struct recorder final : medium_listener {
    int energy_flips = 0;
    int preambles = 0;
    std::vector<std::pair<node_id, bool>> received;  ///< (src, decoded)

    void on_energy_busy(bool) override { ++energy_flips; }
    void on_preamble(sim::time_us) override {
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
    const radio_config radio;
    medium air(sim, radio, errors, 1);
    recorder a, b;
    const auto na = air.add_node(a, radio.cs_threshold_dbm);
    const auto nb = air.add_node(b, radio.cs_threshold_dbm);
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
    // A non-finite gain is rejected, not culled as "no link" (NaN) or
    // folded into a neighbour's running sum (+inf).
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(air.set_link_gain_db(na, nb, bad), std::invalid_argument);
    }
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

TEST(MediumValidation, CcaDelayMustBeFiniteNonNegativeAndBelowASlot) {
    // The start edge's CCA event reads its frame's slot, which the frame
    // holds only until it ends; a delay under one slot (9 us) is also
    // under the shortest airtime (24 us).
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0,
                             -0.001, capacity::ofdm_timing::slot_us, 12.0}) {
        radio.cca_delay_us = bad;
        EXPECT_THROW(medium(sim, radio, errors, 1), std::invalid_argument)
            << bad;
    }
    for (const double good : {0.0, 4.0, 8.99}) {
        radio.cca_delay_us = good;
        EXPECT_NO_THROW(medium(sim, radio, errors, 1)) << good;
    }
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
    const auto na = air.add_node(a, radio.cs_threshold_dbm);
    const auto nb = air.add_node(b, radio.cs_threshold_dbm);
    const auto nc = air.add_node(c, radio.cs_threshold_dbm);
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
    EXPECT_GT(b.energy_flips, 0);
    EXPECT_GT(b.preambles, 0);
    EXPECT_EQ(c.energy_flips, 0);
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
    const auto ua = unfaded.add_node(a1, radio.cs_threshold_dbm);
    const auto ub = unfaded.add_node(b1, radio.cs_threshold_dbm);
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
    const auto fa = faded.add_node(a2, radio.cs_threshold_dbm);
    const auto fb = faded.add_node(b2, radio.cs_threshold_dbm);
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

TEST(MediumCulling, CulledRunsAreDeterministicForASeed) {
    stats::rng gen(5);
    const auto topology = mac::sample_multi_pair_topology(20, 400.0, 10.0, gen);
    auto config = sparse_arena_config(true);
    config.duration_us = 2e5;

    const auto once = mac::run_multi_pair(topology, config);
    const auto again = mac::run_multi_pair(topology, config);
    EXPECT_EQ(once.per_pair_pps, again.per_pair_pps)
        << "same seed must reproduce the culled run bit-for-bit";
    EXPECT_EQ(once.counters.transmissions, again.counters.transmissions);
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

/// What a run with hand-set links leaves behind: the medium counters,
/// each receiver's decoded count from its sender, and every row size.
struct link_order_run {
    medium_counters counters;
    std::vector<std::uint64_t> decoded;
    std::vector<std::size_t> degree;
};

/// Builds the network run_multi_pair builds for `topology` (saturated
/// broadcast, sender i is node 2i and receiver i node 2i + 1), but sets
/// the link gains in the order `links` lists them.
link_order_run run_with_link_order(
    const multi_pair_topology& topology, const multi_pair_config& config,
    const std::vector<std::pair<node_id, node_id>>& links) {
    const std::size_t pairs = topology.pairs();
    std::vector<multi_pair_topology::position> pos;
    network net(config.radio, config.seed);
    mac_config sender_cfg;
    sender_cfg.sense = config.sense;
    for (std::size_t i = 0; i < pairs; ++i) {
        net.add_node(sender_cfg);
        net.add_node(mac_config{});
        pos.push_back(topology.senders[i]);
        pos.push_back(topology.receivers[i]);
    }
    for (const auto& [a, b] : links) {
        net.set_link_gain_db(
            a, b,
            config.gain_db(std::hypot(pos[a].x - pos[b].x, pos[a].y - pos[b].y)));
    }
    for (std::size_t i = 0; i < pairs; ++i) {
        net.node(static_cast<node_id>(2 * i))
            .set_traffic(traffic_mode::broadcast, broadcast_id, *config.rate,
                         config.payload_bytes);
    }
    net.run(config.duration_us);
    link_order_run out;
    out.counters = net.air().counters();
    for (std::size_t i = 0; i < pairs; ++i) {
        const auto& by_src =
            net.node(static_cast<node_id>(2 * i + 1)).stats().rx_decoded_by_src;
        const auto it = by_src.find(static_cast<node_id>(2 * i));
        out.decoded.push_back(it != by_src.end() ? it->second : 0);
    }
    for (node_id n = 0; n < 2 * pairs; ++n) {
        out.degree.push_back(net.air().neighbor_count(n));
    }
    return out;
}

TEST(MediumTopology, LinkOrderDoesNotChangeTheRun) {
    // The medium keeps its links sorted by key however they arrive, so
    // the frozen rows - and with them fan-out order, fade draws and
    // delivery callbacks - are a function of the topology alone. With
    // fading on, a row out of node-id order would hand the fade draws
    // to different links and move every counter below.
    stats::rng gen(17);
    const auto topology = mac::sample_multi_pair_topology(15, 250.0, 10.0, gen);
    for (const double sigma_db : {0.0, 2.0}) {
        auto config = sparse_arena_config(true);
        config.radio.fading_sigma_db = sigma_db;
        config.duration_us = 2e5;
        config.seed = 99;
        auto links = mac::audible_link_pairs(topology, config);
        std::sort(links.begin(), links.end());
        const auto sorted = run_with_link_order(topology, config, links);

        // Fisher-Yates on the repo's RNG, then swap some endpoints too.
        stats::rng shuffle_gen(5);
        for (std::size_t i = links.size(); i > 1; --i) {
            std::swap(links[i - 1], links[shuffle_gen.uniform_int(i)]);
        }
        for (std::size_t i = 0; i < links.size(); i += 2) {
            std::swap(links[i].first, links[i].second);
        }
        const auto shuffled = run_with_link_order(topology, config, links);

        ASSERT_GT(sorted.counters.transmissions, 0u);
        EXPECT_EQ(shuffled.counters.transmissions, sorted.counters.transmissions);
        EXPECT_EQ(shuffled.counters.slot_collisions,
                  sorted.counters.slot_collisions);
        EXPECT_EQ(shuffled.counters.chain_collisions,
                  sorted.counters.chain_collisions);
        EXPECT_EQ(shuffled.counters.busy_starts, sorted.counters.busy_starts);
        EXPECT_EQ(shuffled.counters.cca_visits, sorted.counters.cca_visits);
        EXPECT_EQ(shuffled.counters.cca_flips, sorted.counters.cca_flips);
        EXPECT_EQ(shuffled.decoded, sorted.decoded) << "sigma " << sigma_db;
        EXPECT_EQ(shuffled.degree, sorted.degree);

        // The hand-built network is the one run_multi_pair builds.
        const auto reference = mac::run_multi_pair(topology, config);
        EXPECT_EQ(reference.counters.transmissions,
                  sorted.counters.transmissions);
        for (std::size_t i = 0; i < sorted.decoded.size(); ++i) {
            EXPECT_EQ(reference.per_pair_pps[i],
                      static_cast<double>(sorted.decoded[i]) /
                          (config.duration_us / 1e6));
        }
    }
}

TEST(MediumTopology, SettingALinkAgainOverwritesItsGain) {
    sim::simulator sim;
    const radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 1);
    std::vector<recorder> nodes(5);
    for (auto& r : nodes) air.add_node(r, radio.cs_threshold_dbm);
    // Out of key order, then each link again with its ends swapped.
    air.set_link_gain_db(3, 4, -70.0);
    air.set_link_gain_db(0, 2, -80.0);
    air.set_link_gain_db(1, 3, -90.0);
    air.set_link_gain_db(2, 0, -65.0);
    air.set_link_gain_db(4, 3, -75.0);
    EXPECT_EQ(air.link_gain_db(0, 2), -65.0);
    EXPECT_EQ(air.link_gain_db(2, 0), -65.0);
    EXPECT_EQ(air.link_gain_db(3, 4), -75.0);
    EXPECT_EQ(air.link_gain_db(1, 3), -90.0);
    EXPECT_EQ(air.rx_power_dbm(2, 0), radio.tx_power_dbm - 65.0);

    // The freeze keeps the answers and builds one row entry per link.
    std::vector<double> before;
    for (node_id a = 0; a < 5; ++a) {
        for (node_id b = 0; b < 5; ++b) {
            if (a != b) before.push_back(air.link_gain_db(a, b));
        }
    }
    air.start_transmission(0, data_frame(0, 6.0), true);
    std::vector<double> after;
    for (node_id a = 0; a < 5; ++a) {
        for (node_id b = 0; b < 5; ++b) {
            if (a != b) after.push_back(air.link_gain_db(a, b));
        }
    }
    EXPECT_EQ(after, before);
    EXPECT_EQ(air.link_gain_db(0, 1), -500.0) << "an unset link";
    EXPECT_EQ(air.neighbor_count(0), 1u);
    EXPECT_EQ(air.neighbor_count(1), 1u);
    EXPECT_EQ(air.neighbor_count(2), 1u);
    EXPECT_EQ(air.neighbor_count(3), 2u);
    EXPECT_EQ(air.neighbor_count(4), 1u);
    EXPECT_THROW(air.set_link_gain_db(0, 1, -60.0), std::logic_error);
}

TEST(MediumCulling, DefaultConfigKeepsAllNeighbors) {
    // camp01-camp04 and the testbed scenarios construct their radios
    // from the defaults: the floor stays disabled there, so every link
    // with a gain set is audible and each row holds all N - 1 others.
    EXPECT_FALSE(radio_config{}.audibility_enabled());
    EXPECT_FALSE(multi_pair_config{}.radio.audibility_enabled());
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    const radio_config radio;
    medium air(sim, radio, errors, 1);
    constexpr node_id nodes = 6;
    std::vector<recorder> listeners(nodes);
    for (auto& l : listeners) air.add_node(l, radio.cs_threshold_dbm);
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

/// Listener for the oracle runs: reports its own transmission ends and,
/// when asked, logs energy-CCA flips and settled frames.
struct oracle_probe final : medium_listener {
    node_id id = 0;
    const sim::simulator* sim = nullptr;
    std::vector<std::tuple<sim::time_us, node_id, bool>>* flips = nullptr;
    std::function<void()> on_end;
    std::function<void(const frame&, double)> on_rx;

    void on_energy_busy(bool busy) override {
        if (flips != nullptr) flips->emplace_back(sim->now(), id, busy);
    }
    void on_preamble(sim::time_us) override {}
    void on_frame_received(const frame& f, double, double min_sinr_db,
                           bool) override {
        if (on_rx) on_rx(f, min_sinr_db);
    }
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
    std::vector<oracle_probe> probes(nodes);
    for (auto& p : probes) air.add_node(p, radio.cs_threshold_dbm);

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
        const auto na = air.add_node(a, radio.cs_threshold_dbm);
        const auto nb = air.add_node(b, radio.cs_threshold_dbm);
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

/// b = dbm_boundary_mw(t) must be the smallest double whose dBm reaches t.
void expect_exact_boundary(double threshold_dbm) {
    const double b = propagation::dbm_boundary_mw(threshold_dbm);
    ASSERT_GT(b, 0.0) << threshold_dbm;
    EXPECT_GE(propagation::mw_to_dbm(b), threshold_dbm) << threshold_dbm;
    EXPECT_LT(propagation::mw_to_dbm(std::nextafter(b, 0.0)), threshold_dbm)
        << threshold_dbm;
}

TEST(MediumCca, ThresholdBoundaryMeetsItsDefinition) {
    const radio_config radio;
    expect_exact_boundary(radio.noise_floor_dbm);
    // Each node's sensed power starts at the noise floor in mW. It
    // round-trips, so a threshold set before the first CCA callback
    // decides exactly like a comparison against noise_floor_dbm.
    EXPECT_EQ(propagation::mw_to_dbm(
                  propagation::dbm_to_mw(radio.noise_floor_dbm)),
              radio.noise_floor_dbm);
    for (int t = -120; t <= -20; ++t) expect_exact_boundary(t);
    stats::rng gen(17);
    for (int k = 0; k < 10'000; ++k) {
        expect_exact_boundary(gen.uniform(-150.0, 30.0));
    }
}

TEST(MediumCca, Log10IsMonotoneOverNeighbouringDoubles) {
    // The mW compare and the worst-interference SINR equal their dB
    // forms only because mw_to_dbm never decreases from one double to
    // the next. Walk runs of neighbouring doubles at log-uniform points
    // from the medium's 1e-300 mW interference floor up to 1 W.
    stats::rng gen(23);
    const double up = std::numeric_limits<double>::infinity();
    for (int k = 0; k < 20'000; ++k) {
        double x = k == 0 ? 1e-300 : std::pow(10.0, gen.uniform(-300.0, 3.0));
        double prev = propagation::mw_to_dbm(x);
        for (int step = 0; step < 64; ++step) {
            x = std::nextafter(x, up);
            const double cur = propagation::mw_to_dbm(x);
            ASSERT_LE(prev, cur) << "mw_to_dbm decreases after " << x;
            prev = cur;
        }
    }
}

TEST(MediumCca, SensedPowerExactlyAtThresholdIsBusy) {
    // Energy CCA's rule is power >= threshold. Pick a link gain whose
    // sensed power P (noise plus one frame) is itself a boundary double,
    // i.e. the next double down has a lower dBm. A threshold of exactly
    // mw_to_dbm(P) must read busy; the next threshold up must not.
    const capacity::logistic_per_model errors;
    const radio_config radio;
    const double noise_mw = propagation::dbm_to_mw(radio.noise_floor_dbm);
    double gain_db = -95.0;
    double sensed_mw = 0.0;
    for (int k = 0; k < 10'000; ++k, gain_db += 1e-9) {
        sensed_mw =
            noise_mw + propagation::dbm_to_mw(radio.tx_power_dbm + gain_db);
        if (propagation::mw_to_dbm(std::nextafter(sensed_mw, 0.0)) <
            propagation::mw_to_dbm(sensed_mw)) {
            break;
        }
    }
    const double at_dbm = propagation::mw_to_dbm(sensed_mw);
    ASSERT_EQ(propagation::dbm_boundary_mw(at_dbm), sensed_mw);
    const auto flips = [&](double threshold_dbm) {
        sim::simulator sim;
        medium air(sim, radio, errors, 3);
        recorder a, b;
        const auto na = air.add_node(a, radio.cs_threshold_dbm);
        const auto nb = air.add_node(b, threshold_dbm);
        air.set_link_gain_db(na, nb, gain_db);
        sim.schedule_in(0.0, [&] {
            air.start_transmission(na, data_frame(na, 6.0), true);
        });
        sim.run_until(100.0);
        EXPECT_EQ(air.external_power_dbm(nb), at_dbm);
        return b.energy_flips;
    };
    EXPECT_EQ(flips(at_dbm), 1);
    EXPECT_EQ(flips(std::nextafter(at_dbm,
                                   std::numeric_limits<double>::infinity())),
              0);
}

TEST(MediumCca, NonFiniteThresholdsAreRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    const radio_config radio;
    medium air(sim, radio, errors, 1);
    recorder a;
    for (const double bad : {nan, inf, -inf}) {
        EXPECT_THROW(air.add_node(a, bad), std::invalid_argument) << bad;
        EXPECT_THROW(propagation::dbm_boundary_mw(bad), std::invalid_argument)
            << bad;
    }
    EXPECT_EQ(air.node_count(), 0u) << "a rejected node must not register";
    const auto na = air.add_node(a, radio.cs_threshold_dbm);
    for (const double bad : {nan, inf, -inf}) {
        EXPECT_THROW(air.set_cs_threshold_dbm(na, bad), std::invalid_argument)
            << bad;
    }
    EXPECT_THROW(air.set_cs_threshold_dbm(na + 1, -80.0),
                 std::invalid_argument);
    EXPECT_THROW(air.external_power_integral_mw_us(na + 1),
                 std::invalid_argument);

    // Through the DCF node: a rejected override leaves the node as it was.
    network net(radio, 1);
    const auto s = net.add_node(mac_config{});
    for (const double bad : {nan, inf, -inf}) {
        EXPECT_THROW(net.node(s).set_cs_threshold_dbm(bad),
                     std::invalid_argument)
            << bad;
        EXPECT_DOUBLE_EQ(net.node(s).cs_threshold_dbm(),
                         radio.cs_threshold_dbm);
    }
    mac_config nan_offset;
    nan_offset.cs_threshold_offset_db = nan;
    EXPECT_THROW(net.add_node(nan_offset), std::invalid_argument);
}

TEST(MediumCca, SensedPowerIntegralIsReportedOnlyForAdaptiveNodes) {
    radio_config radio;
    network net(radio, 5);
    mac_config adaptive;
    adaptive.adapt.policy = cs_adapt_policy::target_busy;
    const auto s = net.add_node(mac_config{});
    const auto r = net.add_node(adaptive);
    net.set_link_gain_db(s, r, -60.0);
    net.node(s).set_traffic(traffic_mode::broadcast, broadcast_id,
                            rate_by_mbps(6.0), 1400);
    net.run(1e5);
    EXPECT_EQ(net.node(s).external_power_integral_mw_us(), 0.0);
    // The receiver sensed the noise floor plus the sender's frames.
    const double noise_only =
        propagation::dbm_to_mw(radio.noise_floor_dbm) * net.sim().now();
    EXPECT_GT(net.node(r).external_power_integral_mw_us(), noise_only);
    EXPECT_EQ(net.node(r).external_power_integral_mw_us(),
              net.air().external_power_integral_mw_us(r));
}

/// Drives random overlapping broadcasts and threshold steps on N = 20
/// nodes with random gains and per-node thresholds. A test-side oracle
/// re-decides energy CCA in dBm one CCA delay after every start and end,
/// exactly where the medium senses: it reads external_power_dbm at every
/// node the medium visits, records each change of `power >= threshold`,
/// and integrates the sensed power. The medium's on_energy_busy calls
/// and counters must match it.
void check_cca_against_oracle(double floor_dbm, std::uint64_t seed) {
    constexpr node_id nodes = 20;
    sim::simulator sim;
    const capacity::logistic_per_model errors;
    radio_config radio;
    radio.audibility_floor_dbm = floor_dbm;
    medium air(sim, radio, errors, seed);
    stats::rng gen(seed);

    std::vector<std::tuple<sim::time_us, node_id, bool>> got, want;
    std::vector<oracle_probe> probes(nodes);
    std::vector<double> threshold_dbm(nodes);
    for (node_id n = 0; n < nodes; ++n) {
        probes[n].id = n;
        probes[n].sim = &sim;
        probes[n].flips = &got;
        threshold_dbm[n] = gen.uniform(-100.0, -60.0);
        air.add_node(probes[n], threshold_dbm[n]);
    }
    std::vector<std::vector<bool>> audible(nodes, std::vector<bool>(nodes));
    for (node_id a = 0; a < nodes; ++a) {
        for (node_id b = a + 1; b < nodes; ++b) {
            const double gain_db = gen.uniform(-150.0, -60.0);
            air.set_link_gain_db(a, b, gain_db);
            audible[a][b] = audible[b][a] =
                radio.tx_power_dbm + gain_db >= radio.audibility_floor_dbm;
        }
    }

    std::vector<double> last_dbm(nodes, radio.noise_floor_dbm);
    std::vector<bool> busy(nodes, false);
    std::vector<double> integral(nodes, 0.0);
    std::vector<sim::time_us> mark(nodes, 0.0);
    std::uint64_t visits = 0;
    const auto decide = [&](node_id n) {
        const bool now_busy = last_dbm[n] >= threshold_dbm[n];
        if (now_busy != busy[n]) {
            busy[n] = now_busy;
            want.emplace_back(sim.now(), n, now_busy);
        }
    };
    const auto sense = [&](node_id src) {
        for (node_id n = 0; n < nodes; ++n) {
            if (n == src || !audible[src][n]) continue;
            ++visits;
            integral[n] +=
                propagation::dbm_to_mw(last_dbm[n]) * (sim.now() - mark[n]);
            mark[n] = sim.now();
            last_dbm[n] = air.external_power_dbm(n);
            decide(n);
        }
    };
    const auto sense_after_cca = [&](node_id src) {
        sim.schedule_in(radio.cca_delay_us, [&sense, src] { sense(src); });
    };
    for (node_id n = 0; n < nodes; ++n) {
        probes[n].on_end = [&, n] { sense_after_cca(n); };
    }
    for (int k = 0; k < 300; ++k) {
        const double at = gen.uniform(0.0, 20'000.0);
        const auto src = static_cast<node_id>(gen.uniform_int(nodes));
        const int bytes = 100 + static_cast<int>(gen.uniform_int(1400));
        sim.schedule_at(at, [&, src, bytes] {
            if (air.transmitting(src)) return;
            air.start_transmission(src, data_frame(src, 6.0, bytes), true);
            sense_after_cca(src);
        });
    }
    // Threshold steps re-decide against the last sensed power at once.
    for (int k = 0; k < 100; ++k) {
        const double at = gen.uniform(0.0, 20'000.0);
        const auto n = static_cast<node_id>(gen.uniform_int(nodes));
        const double t = gen.uniform(-100.0, -60.0);
        sim.schedule_at(at, [&, n, t] {
            air.set_cs_threshold_dbm(n, t);
            threshold_dbm[n] = t;
            decide(n);
        });
    }
    sim.run_until(40'000.0);

    EXPECT_GT(want.size(), 100u) << "too few CCA flips to be a test";
    EXPECT_EQ(got, want);
    EXPECT_EQ(air.counters().cca_flips, got.size());
    EXPECT_EQ(air.counters().cca_visits, visits);
    for (node_id n = 0; n < nodes; ++n) {
        const double oracle =
            integral[n] +
            propagation::dbm_to_mw(last_dbm[n]) * (sim.now() - mark[n]);
        EXPECT_NEAR(air.external_power_integral_mw_us(n), oracle,
                    1e-12 * oracle)
            << "node " << n;
    }
}

TEST(MediumCca, EnergyBusyCallbacksMatchDbmOracleFloorOff) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        check_cca_against_oracle(audibility_floor_disabled_dbm, seed);
    }
}

TEST(MediumCca, EnergyBusyCallbacksMatchDbmOracleFloorOn) {
    const double floor_dbm = radio_config{}.noise_floor_dbm - 20.0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        check_cca_against_oracle(floor_dbm, seed);
    }
}

TEST(MediumCca, FrameSinrEqualsMinimumOfDbSinrs) {
    // After every transmission start, a test-side oracle computes the dB
    // SINR of every on-air frame at every node from a brute-force power
    // sum and keeps the minimum per (receiver, frame). The medium tracks
    // the worst interference in mW instead; the SINR it reports when a
    // frame settles must be that minimum.
    constexpr node_id nodes = 20;
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
        SCOPED_TRACE(seed);
        sim::simulator sim;
        const capacity::logistic_per_model errors;
        const radio_config radio;
        medium air(sim, radio, errors, seed);
        stats::rng gen(seed);
        std::vector<oracle_probe> probes(nodes);
        for (auto& p : probes) air.add_node(p, radio.cs_threshold_dbm);
        std::vector<std::vector<double>> rx_mw(nodes,
                                               std::vector<double>(nodes));
        for (node_id a = 0; a < nodes; ++a) {
            for (node_id b = a + 1; b < nodes; ++b) {
                const double gain_db = gen.uniform(-110.0, -60.0);
                air.set_link_gain_db(a, b, gain_db);
                rx_mw[a][b] = rx_mw[b][a] =
                    propagation::dbm_to_mw(radio.tx_power_dbm + gain_db);
            }
        }
        const double noise_mw = propagation::dbm_to_mw(radio.noise_floor_dbm);
        std::vector<std::uint64_t> on_air(nodes, 0);  ///< sequence, 0 = idle
        std::map<std::pair<node_id, std::uint64_t>, double> min_sinr_db;
        int settled = 0;
        for (node_id n = 0; n < nodes; ++n) {
            probes[n].on_end = [&, n] { on_air[n] = 0; };
            probes[n].on_rx = [&, n](const frame& f, double sinr_db) {
                const auto it = min_sinr_db.find({n, f.sequence});
                ASSERT_NE(it, min_sinr_db.end());
                EXPECT_NEAR(sinr_db, it->second, 1e-9)
                    << "node " << n << " frame " << f.sequence;
                ++settled;
            };
        }
        const auto update_oracle = [&] {
            for (node_id n = 0; n < nodes; ++n) {
                double ext_mw = noise_mw;
                for (node_id s = 0; s < nodes; ++s) {
                    if (s != n && on_air[s] != 0) ext_mw += rx_mw[s][n];
                }
                for (node_id s = 0; s < nodes; ++s) {
                    if (s == n || on_air[s] == 0) continue;
                    const double signal = rx_mw[s][n];
                    const double sinr =
                        propagation::mw_to_dbm(signal) -
                        propagation::mw_to_dbm(
                            std::max(ext_mw - signal, 1e-300));
                    const auto key = std::make_pair(n, on_air[s]);
                    const auto it = min_sinr_db.find(key);
                    if (it == min_sinr_db.end()) {
                        min_sinr_db.emplace(key, sinr);
                    } else {
                        it->second = std::min(it->second, sinr);
                    }
                }
            }
        };
        std::uint64_t sequence = 0;
        for (int k = 0; k < 600; ++k) {
            const double at = gen.uniform(0.0, 100'000.0);
            const auto src = static_cast<node_id>(gen.uniform_int(nodes));
            const int bytes = 100 + static_cast<int>(gen.uniform_int(1400));
            sim.schedule_at(at, [&, src, bytes] {
                if (air.transmitting(src)) return;
                frame f = data_frame(src, 6.0, bytes);
                f.sequence = ++sequence;
                air.start_transmission(src, f, true);
                on_air[src] = f.sequence;
                update_oracle();
            });
        }
        sim.run_until(120'000.0);
        EXPECT_GT(settled, 100) << "too few locked receptions to be a test";
    }
}

TEST(MediumCulling, DisabledFloorReturnsAllPairs) {
    stats::rng gen(3);
    const auto topology = mac::sample_multi_pair_topology(5, 100.0, 10.0, gen);
    const auto config = sparse_arena_config(false);
    const auto pairs = mac::audible_link_pairs(topology, config);
    EXPECT_EQ(pairs.size(), 10u * 9u / 2u);
}

}  // namespace
