// Medium edge cases (§4/§5 implementation corner cases):
//  - the transmission table stays as small as the most frames on the
//    air at once over long runs (an ended frame frees its slot), and
//    frames keep delivering across slot reuse (the slot index a
//    reception holds must never dangle);
//  - a transmitter abandons any reception in progress, the abandoned
//    frame is not delivered, and the receiver's lock state resets so it
//    can lock onto later frames;
//  - each frame edge costs one event: the start edge's preamble
//    announcements ride on its CCA event, in node-id order, ahead of
//    the energy-CCA flips.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/capacity/rate_table.hpp"
#include "src/mac/medium.hpp"
#include "src/mac/network.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace csense;
using namespace csense::mac;
using csense::capacity::rate_by_mbps;

/// Listener that records deliveries and stays silent otherwise.
struct recorder final : medium_listener {
    std::vector<std::pair<node_id, bool>> received;  ///< (src, decoded)

    void on_energy_busy(bool) override {}
    void on_preamble(sim::time_us) override {}
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

TEST(Medium, LogCompactionFiresAndLaterFramesStillDeliver) {
    // Despite the name, nothing is compacted: the medium keeps frames
    // on the air in a slot table, and an ended frame frees its slot for
    // the next start. A single 54 Mb/s broadcast pair sends thousands
    // of frames in a few simulated seconds: the table must stay at the
    // one slot its lone sender needs, and delivery must keep working
    // while that slot is reused.
    radio_config radio;
    network net(radio, 123);
    const auto s = net.add_node(mac_config{});
    const auto r = net.add_node(mac_config{});
    net.set_link_gain_db(s, r, -60.0);
    net.node(s).set_traffic(traffic_mode::broadcast, broadcast_id,
                            rate_by_mbps(54.0), 1400);

    net.run(2e6);
    const auto mid = net.node(r).stats().rx_data_decoded;
    ASSERT_GT(mid, 4096u) << "needs a long run";
    EXPECT_EQ(net.air().transmission_log_size(), 1u)
        << "one sender needs one slot: ended frames must free theirs";

    net.run(2e6);  // continue the same simulation
    const auto late = net.node(r).stats().rx_data_decoded;
    EXPECT_GT(late, mid + 1000u)
        << "frames must keep delivering while slots are reused";
    EXPECT_EQ(net.air().transmission_log_size(), 1u);
}

TEST(Medium, TransmitterAbandonsReceptionAndLockResets) {
    sim::simulator sim;
    radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 7);
    recorder a, b;
    const auto na = air.add_node(a, radio.cs_threshold_dbm);
    const auto nb = air.add_node(b, radio.cs_threshold_dbm);
    air.set_link_gain_db(na, nb, -60.0);

    // A starts a long frame; B locks onto it.
    const frame long_frame = data_frame(na, 6.0);     // ~1900 us airtime
    const frame short_frame = data_frame(nb, 54.0);   // ~230 us airtime
    sim.schedule_in(0.0, [&] {
        air.start_transmission(na, long_frame, true);
    });
    // Mid-frame, B transmits: it must abandon the reception in progress.
    sim.schedule_in(400.0, [&] {
        ASSERT_FALSE(air.transmitting(nb));
        air.start_transmission(nb, short_frame, true);
    });
    sim.run_until(3000.0);  // both frames have left the air
    EXPECT_TRUE(b.received.empty())
        << "the abandoned frame must not be delivered";

    // The lock state reset: B (idle again) locks onto A's next frame and
    // decodes it at clean-channel SINR.
    sim.schedule_in(100.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.run_until(6000.0);
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].first, na);
    EXPECT_TRUE(b.received[0].second) << "clean 55 dB SNR frame must decode";
}

TEST(Medium, AbandonedFrameStillCountsAsInterferenceElsewhere) {
    // B abandoning its reception does not take A's frame off the air: a
    // third node C locked onto a weak frame from D must still see A's
    // transmission as interference. Regression for lock bookkeeping
    // (abandon resets B's lock only, not the transmission).
    sim::simulator sim;
    radio_config radio;
    const capacity::logistic_per_model errors;
    medium air(sim, radio, errors, 9);
    recorder a, b, c, d;
    const auto na = air.add_node(a, radio.cs_threshold_dbm);
    const auto nb = air.add_node(b, radio.cs_threshold_dbm);
    const auto nc = air.add_node(c, radio.cs_threshold_dbm);
    const auto nd = air.add_node(d, radio.cs_threshold_dbm);
    air.set_link_gain_db(na, nb, -60.0);
    air.set_link_gain_db(nd, nc, -88.0);  // marginal link: 27 dB SNR...
    air.set_link_gain_db(na, nc, -90.0);  // ...A degrades it to ~2 dB SINR
    air.set_link_gain_db(na, nd, -140.0);
    air.set_link_gain_db(nb, nc, -140.0);
    air.set_link_gain_db(nb, nd, -140.0);
    air.set_link_gain_db(nc, nd, -88.0);

    // D's long frame starts first and C locks on cleanly.
    sim.schedule_in(0.0, [&] {
        air.start_transmission(nd, data_frame(nd, 24.0), true);
    });
    // A's long frame overlaps it; B abandons nothing here - it just
    // transmits to force the abandon path while C's reception runs.
    sim.schedule_in(50.0, [&] {
        air.start_transmission(na, data_frame(na, 6.0), true);
    });
    sim.schedule_in(100.0, [&] {
        air.start_transmission(nb, data_frame(nb, 54.0), true);
    });
    sim.run_until(10000.0);
    ASSERT_EQ(c.received.size(), 1u);
    EXPECT_FALSE(c.received[0].second)
        << "A's frame must stay on the air as interference at C even "
           "after B abandoned its own reception of it";
}

/// One listener callback, as seen by edge_log.
struct edge_call {
    enum kind_t { preamble, energy_busy } kind;
    node_id node;
    sim::time_us at;
};

/// Listener that appends its preamble and energy-CCA callbacks, with the
/// simulated time, to a log shared by every node.
struct edge_log final : medium_listener {
    const sim::simulator* sim = nullptr;
    node_id id = 0;
    std::vector<edge_call>* log = nullptr;
    sim::time_us preamble_until = -1.0;

    void on_energy_busy(bool) override {
        log->push_back({edge_call::energy_busy, id, sim->now()});
    }
    void on_preamble(sim::time_us until) override {
        preamble_until = until;
        log->push_back({edge_call::preamble, id, sim->now()});
    }
    void on_frame_received(const frame&, double, double, bool) override {}
    void on_tx_complete(const frame&) override {}
};

TEST(Medium, PreamblesFoldIntoTheStartEdgeCcaEvent) {
    // Node 0 sends one isolated frame to three neighbors; the first
    // `decodable` of them hear it at -45 dBm, the rest at -100 dBm
    // (below the preamble sensitivity and the energy threshold). The
    // links are set in reverse order, so node-id order in the log comes
    // from the neighbor rows, not from the order of the calls.
    for (const int decodable : {0, 1, 2, 3}) {
        sim::simulator sim;
        const radio_config radio;
        const capacity::logistic_per_model errors;
        medium air(sim, radio, errors, 7);
        std::vector<edge_call> log;
        std::vector<edge_log> nodes(4);
        for (node_id n = 0; n < nodes.size(); ++n) {
            nodes[n].sim = &sim;
            nodes[n].id = n;
            nodes[n].log = &log;
            ASSERT_EQ(air.add_node(nodes[n], radio.cs_threshold_dbm), n);
        }
        for (node_id n = 3; n >= 1; --n) {
            const bool hears = static_cast<int>(n) <= decodable;
            air.set_link_gain_db(0, n, hears ? -60.0 : -115.0);
        }

        const frame f = data_frame(0, 6.0);
        air.start_transmission(0, f, true);
        const sim::time_us end = f.airtime_us();
        sim.run_all();

        // One event per edge, whatever the number of decodable
        // neighbors: the start's CCA event, the end, the end's CCA event.
        EXPECT_EQ(sim.events_executed(), 3u) << decodable << " decodable";

        std::vector<std::tuple<edge_call::kind_t, node_id, sim::time_us>>
            expected;
        for (node_id n = 1; static_cast<int>(n) <= decodable; ++n) {
            expected.emplace_back(edge_call::preamble, n, radio.cca_delay_us);
        }
        for (node_id n = 1; static_cast<int>(n) <= decodable; ++n) {
            expected.emplace_back(edge_call::energy_busy, n,
                                  radio.cca_delay_us);
        }
        for (node_id n = 1; static_cast<int>(n) <= decodable; ++n) {
            expected.emplace_back(edge_call::energy_busy, n,
                                  end + radio.cca_delay_us);
        }
        std::vector<std::tuple<edge_call::kind_t, node_id, sim::time_us>>
            actual;
        for (const edge_call& c : log) actual.emplace_back(c.kind, c.node, c.at);
        EXPECT_EQ(actual, expected) << decodable << " decodable";
        for (node_id n = 1; static_cast<int>(n) <= decodable; ++n) {
            EXPECT_EQ(nodes[n].preamble_until, end);
        }
    }
}

}  // namespace
