// Arrivals and the per-node FIFO queue: arrival determinism, load
// validation, offered-load accounting, queue overflow drops, packet
// conservation, and the sojourn-time metrics the unsaturated campaigns
// report.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "src/capacity/rate_table.hpp"
#include "src/mac/multi_pair.hpp"
#include "src/mac/network.hpp"

namespace {

using namespace csense::mac;
using csense::capacity::rate_by_mbps;
using csense::stats::rng;

constexpr int payload = 1400;

traffic_config poisson_cfg(double pps) {
    traffic_config tc;
    tc.model = traffic_model::poisson;
    tc.offered_load_pps = pps;
    return tc;
}

struct pair_net {
    network net;
    node_id s, r;

    explicit pair_net(std::uint64_t seed) : net(radio_config{}, seed) {
        s = net.add_node(mac_config{});
        r = net.add_node(mac_config{});
        net.set_link_gain_db(s, r, -60.0);
    }
};

TEST(TrafficSource, SaturatedIsTheDefaultAndFlagsItself) {
    EXPECT_EQ(traffic_config{}.model, traffic_model::saturated);
    EXPECT_TRUE(traffic_config{}.saturated());
    EXPECT_FALSE(poisson_cfg(100.0).saturated());
}

TEST(TrafficSource, SetTrafficModelRejectsNonPositiveLoads) {
    pair_net p(11);
    dcf_node& node = p.net.node(p.s);
    EXPECT_THROW(node.set_traffic_model(poisson_cfg(0.0)),
                 std::invalid_argument);
    EXPECT_THROW(node.set_traffic_model(poisson_cfg(-5.0)),
                 std::invalid_argument);
    traffic_config bad_queue = poisson_cfg(100.0);
    bad_queue.queue_capacity = -1;
    EXPECT_THROW(node.set_traffic_model(bad_queue), std::invalid_argument);
    // The saturated model ignores the load knob.
    traffic_config saturated;
    saturated.offered_load_pps = 0.0;
    EXPECT_NO_THROW(node.set_traffic_model(saturated));
}

TEST(TrafficSource, SetTrafficModelRejectsNonFiniteLoads) {
    // An infinite rate draws 0 us interarrivals, so the run would
    // livelock at one instant; NaN has no meaning at all.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    pair_net p(12);
    for (const double load : {inf, -inf, nan}) {
        EXPECT_THROW(p.net.node(p.s).set_traffic_model(poisson_cfg(load)),
                     std::invalid_argument)
            << "load " << load;
    }
}

TEST(TrafficSource, PoissonIsSeedDeterministicWithTheRightMean) {
    // 10^4 pps into a zero-length queue: the sender is busy most of the
    // time, so most arrivals are dropped, but every one is counted.
    auto offered = [](std::uint64_t seed) {
        pair_net p(seed);
        traffic_config tc = poisson_cfg(10'000.0);
        tc.queue_capacity = 0;
        p.net.node(p.s).set_traffic(traffic_mode::broadcast, broadcast_id,
                                    rate_by_mbps(24.0), payload);
        p.net.node(p.s).set_traffic_model(tc);
        p.net.run(2e6);
        return p.net.node(p.s).stats().offered_packets;
    };
    const auto count = offered(99);
    EXPECT_EQ(count, offered(99));  // same seed => identical arrivals
    EXPECT_NE(count, offered(100));
    // Mean 2 * 10^4 arrivals, standard deviation ~141.
    EXPECT_NEAR(static_cast<double>(count), 20'000.0, 600.0);
}

TEST(TrafficQueue, LowLoadDeliversTheOfferedPacketsWithSmallSojourns) {
    pair_net p(17);
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(poisson_cfg(200.0));
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    EXPECT_NEAR(static_cast<double>(stats.offered_packets), 400.0, 80.0);
    EXPECT_EQ(stats.queue_drops, 0u);  // ~10% utilisation never overflows
    // Everything offered is delivered, modulo the odd packet in flight
    // at the end of the run.
    EXPECT_GE(stats.data_acked + 2, stats.offered_packets);
    const auto& sojourn = p.net.node(p.s).sojourn_times();
    EXPECT_EQ(sojourn.count(), stats.data_acked);
    // At 10% load the sojourn is essentially one service time: DIFS +
    // backoff + ~580 us of data airtime + SIFS + ACK.
    EXPECT_GT(sojourn.quantile(0.5), 500.0);
    EXPECT_LT(sojourn.quantile(0.99), 5'000.0);
}

TEST(TrafficQueue, OverloadFillsTheQueueAndCountsDrops) {
    pair_net p(18);
    traffic_config tc = poisson_cfg(5'000.0);  // far beyond link capacity
    tc.queue_capacity = 16;
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(tc);
    p.net.run(2e6);
    const auto& stats = p.net.node(p.s).stats();
    EXPECT_GT(stats.queue_drops, 1000u);
    EXPECT_LT(stats.data_acked, stats.offered_packets);
    // A full 16-deep queue bounds the sojourn at ~17 service times.
    const auto& sojourn = p.net.node(p.s).sojourn_times();
    EXPECT_GT(sojourn.quantile(0.5), 5'000.0);  // queueing dominates
    EXPECT_LT(sojourn.max(), 17.5 * 2'000.0);
}

TEST(TrafficQueue, SameSeedSameArrivalsAcrossRuns) {
    auto run = [](std::uint64_t seed) {
        pair_net p(seed);
        p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                    rate_by_mbps(24.0), payload);
        p.net.node(p.s).set_traffic_model(poisson_cfg(800.0));
        p.net.run(2e6);
        const auto& stats = p.net.node(p.s).stats();
        return std::tuple{stats.offered_packets, stats.data_acked,
                          p.net.node(p.s).sojourn_times().quantile(0.99),
                          p.net.node(p.s).sojourn_times().jitter()};
    };
    EXPECT_EQ(run(23), run(23));
    EXPECT_NE(std::get<0>(run(23)), std::get<0>(run(24)));
}

TEST(TrafficQueue, IdleSenderRestartsOnTheNextArrival) {
    // Poisson at 20 pps: a packet takes under a millisecond to deliver,
    // so almost every arrival finds the sender idle and must restart it.
    // Deliveries then track arrivals one for one.
    pair_net p(29);
    p.net.node(p.s).set_traffic(traffic_mode::unicast, p.r,
                                rate_by_mbps(24.0), payload);
    p.net.node(p.s).set_traffic_model(poisson_cfg(20.0));
    p.net.run(2e6);
    const dcf_node& sender = p.net.node(p.s);
    const auto& stats = sender.stats();
    EXPECT_GT(stats.offered_packets, 20u);
    EXPECT_EQ(stats.queue_drops, 0u);
    EXPECT_EQ(stats.data_dropped, 0u);
    EXPECT_EQ(sender.queue_depth(), 0u);
    EXPECT_EQ(stats.data_acked + (sender.packet_in_service() ? 1 : 0),
              stats.offered_packets);
    // No packet waited behind another: every sojourn is one service time.
    EXPECT_LT(sender.sojourn_times().max(), 2'000.0);
}

TEST(MultiPairTraffic, UnsaturatedRunReportsLatencyAndDropMetrics) {
    rng gen(3);
    const auto topology = sample_multi_pair_topology(6, 120.0, 15.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(24.0);
    config.duration_us = 5e5;
    config.seed = 3;
    config.unicast = true;
    config.rate_adapt = rate_adapt_mode::arf;
    config.traffic = poisson_cfg(600.0);
    config.traffic.queue_capacity = 32;
    const auto result = run_multi_pair(topology, config);
    EXPECT_GT(result.offered_packets, 0u);
    EXPECT_GT(result.sojourn_us.count(), 0u);
    EXPECT_GT(result.sojourn_us.quantile(0.5), 0.0);
    EXPECT_GE(result.sojourn_us.quantile(0.99),
              result.sojourn_us.quantile(0.5));
    EXPECT_GE(result.drop_rate, 0.0);
    EXPECT_LE(result.drop_rate, 1.0);
    // Determinism across identical configs.
    const auto again = run_multi_pair(topology, config);
    EXPECT_EQ(result.offered_packets, again.offered_packets);
    EXPECT_EQ(result.queue_drops, again.queue_drops);
    EXPECT_EQ(result.sojourn_us.quantile(0.99),
              again.sojourn_us.quantile(0.99));
}

TEST(MultiPairTraffic, RateAdaptationRequiresUnicast) {
    rng gen(4);
    const auto topology = sample_multi_pair_topology(2, 80.0, 10.0, gen);
    multi_pair_config config;
    config.rate = &rate_by_mbps(24.0);
    config.rate_adapt = rate_adapt_mode::arf;  // but unicast left false
    EXPECT_THROW(run_multi_pair(topology, config), std::invalid_argument);
}

TEST(MultiPairTraffic, EveryOfferedPacketIsAccountedFor) {
    // Conservation on every unsaturated cell: each offered packet was
    // delivered, dropped at the queue or the retry limit, is still
    // queued, or is in service. run_multi_pair throws std::logic_error
    // when the identity fails; the test restates it so a failure names
    // the cell. -95 dBm is the dead-network threshold (energy CCA stuck
    // busy at the noise floor), -82 dBm a working one.
    rng gen(6);
    const auto topology = sample_multi_pair_topology(10, 300.0, 10.0, gen);
    for (const bool unicast : {false, true}) {
        for (const double load_pps : {100.0, 5'000.0}) {
            for (const double threshold_dbm : {-95.0, -82.0}) {
                multi_pair_config config;
                config.rate = &rate_by_mbps(24.0);
                config.alpha = 4.0;
                config.radio.audibility_floor_dbm =
                    config.radio.noise_floor_dbm - 20.0;
                config.radio.cs_threshold_dbm = threshold_dbm;
                config.duration_us = 3e5;
                config.seed = 61;
                config.unicast = unicast;
                if (unicast) config.rate_adapt = rate_adapt_mode::arf;
                config.traffic = poisson_cfg(load_pps);
                config.traffic.queue_capacity = 16;
                const std::string cell =
                    std::string(unicast ? "unicast" : "broadcast") +
                    " load " + std::to_string(load_pps) + " thr " +
                    std::to_string(threshold_dbm);
                multi_pair_result run;
                ASSERT_NO_THROW(run = run_multi_pair(topology, config))
                    << cell;
                EXPECT_GT(run.offered_packets, 0u) << cell;
                EXPECT_EQ(run.offered_packets,
                          run.sojourn_us.count() + run.queue_drops +
                              run.retry_drops + run.backlog_at_end +
                              run.in_flight)
                    << cell;
                EXPECT_LE(run.in_flight, 10u) << cell;
                EXPECT_LE(run.backlog_at_end, 10u * 16u) << cell;
                if (load_pps > 1'000.0) {
                    EXPECT_GT(run.queue_drops, 0u) << cell;  // overload
                }
            }
        }
    }
}

}  // namespace
