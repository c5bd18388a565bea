#include "src/mac/multi_pair.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

#include "src/capacity/shannon.hpp"
#include "src/propagation/units.hpp"
#include "src/stats/distributions.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/summary.hpp"

namespace csense::mac {

multi_pair_topology sample_multi_pair_topology(int pairs, double arena_m,
                                               double rmax_m,
                                               stats::rng& gen) {
    if (pairs < 1 || !(arena_m > 0.0) || !(rmax_m > 0.0)) {
        throw std::invalid_argument(
            "sample_multi_pair_topology: bad arguments");
    }
    multi_pair_topology topology;
    topology.senders.resize(pairs);
    topology.receivers.resize(pairs);
    for (int i = 0; i < pairs; ++i) {
        topology.senders[i] = {gen.uniform(0.0, arena_m),
                               gen.uniform(0.0, arena_m)};
        const auto p = stats::sample_uniform_disc(gen, rmax_m);
        topology.receivers[i] = {
            topology.senders[i].x + p.r * std::cos(p.theta),
            topology.senders[i].y + p.r * std::sin(p.theta)};
    }
    return topology;
}

double multi_pair_config::gain_db(double dist_m) const {
    // Log-distance path loss anchored at 1 m; clamping below 1 m keeps
    // pathological overlaps from producing gain > -reference_loss.
    const double d = std::max(dist_m, 1.0);
    return -(reference_loss_db + 10.0 * alpha * std::log10(d));
}

double multi_pair_config::threshold_dbm_for_distance(double dist_m) const {
    if (!(dist_m > 0.0)) {
        throw std::invalid_argument("threshold_dbm_for_distance: dist_m");
    }
    return radio.tx_power_dbm + gain_db(dist_m);
}

double multi_pair_config::distance_for_threshold_dbm(
    double threshold_dbm) const {
    const double exponent =
        (radio.tx_power_dbm - reference_loss_db - threshold_dbm) /
        (10.0 * alpha);
    return std::max(std::pow(10.0, exponent), 1.0);
}

namespace {

double distance(const multi_pair_topology::position& a,
                const multi_pair_topology::position& b) noexcept {
    return std::hypot(a.x - b.x, a.y - b.y);
}

/// Flatten topology node positions in network id order: sender i is node
/// 2i, receiver i is node 2i + 1.
std::vector<multi_pair_topology::position> node_positions(
    const multi_pair_topology& topology) {
    std::vector<multi_pair_topology::position> nodes;
    nodes.reserve(2 * topology.pairs());
    for (std::size_t i = 0; i < topology.pairs(); ++i) {
        nodes.push_back(topology.senders[i]);
        nodes.push_back(topology.receivers[i]);
    }
    return nodes;
}

}  // namespace

std::vector<std::pair<node_id, node_id>> audible_link_pairs(
    const multi_pair_topology& topology, const multi_pair_config& config) {
    const auto nodes = node_positions(topology);
    const auto count = static_cast<node_id>(nodes.size());
    std::vector<std::pair<node_id, node_id>> pairs;
    if (!config.radio.audibility_enabled()) {
        pairs.reserve(static_cast<std::size_t>(count) * (count - 1) / 2);
        for (node_id a = 0; a < count; ++a) {
            for (node_id b = a + 1; b < count; ++b) {
                pairs.emplace_back(a, b);
            }
        }
        return pairs;
    }
    // Audible range: the distance at which the mean received power
    // equals the floor minus the medium's 3-sigma fade allowance (links
    // whose faded tail can still matter must reach the CSR). The tiny
    // relative margin guards the boundary against the log/pow round
    // trip - over-inclusion is harmless (the medium re-checks the floor
    // at freeze time), under-inclusion would drop a real neighbor.
    const double range_m =
        config.distance_for_threshold_dbm(
            config.radio.audibility_floor_dbm -
            3.0 * config.radio.fading_sigma_db) *
        (1.0 + 1e-9);
    // Spatial grid with cell size = range: all audible partners of a
    // node live in its 3x3 cell neighborhood.
    const auto cell_of = [&](double v) {
        return static_cast<std::int64_t>(std::floor(v / range_m));
    };
    const auto cell_key = [](std::int64_t ix, std::int64_t iy) {
        return (static_cast<std::uint64_t>(ix) << 32) ^
               static_cast<std::uint32_t>(iy);
    };
    std::unordered_map<std::uint64_t, std::vector<node_id>> grid;
    grid.reserve(nodes.size());
    for (node_id i = 0; i < count; ++i) {
        grid[cell_key(cell_of(nodes[i].x), cell_of(nodes[i].y))].push_back(i);
    }
    for (node_id a = 0; a < count; ++a) {
        const std::int64_t ix = cell_of(nodes[a].x);
        const std::int64_t iy = cell_of(nodes[a].y);
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
            for (std::int64_t dy = -1; dy <= 1; ++dy) {
                const auto bucket = grid.find(cell_key(ix + dx, iy + dy));
                if (bucket == grid.end()) continue;
                for (const node_id b : bucket->second) {
                    if (b <= a) continue;
                    if (distance(nodes[a], nodes[b]) <= range_m) {
                        pairs.emplace_back(a, b);
                    }
                }
            }
        }
    }
    return pairs;
}

double multi_pair_result::jain_index() const noexcept {
    return stats::jain_index(per_pair_pps);
}

multi_pair_result run_multi_pair(const multi_pair_topology& topology,
                                 const multi_pair_config& config) {
    const std::size_t n = topology.pairs();
    if (n < 1) {
        throw std::invalid_argument("run_multi_pair: empty topology");
    }
    if (config.rate == nullptr) {
        throw std::invalid_argument("run_multi_pair: no data rate");
    }
    if (config.radio.audibility_enabled() && config.adapt.enabled() &&
        config.adapt.min_threshold_dbm <= config.radio.audibility_floor_dbm) {
        // The medium validates the global thresholds itself but cannot
        // see per-node override ranges; an adaptive clamp below the
        // floor would let controllers deafen nodes to carriers the
        // culled medium models as exact silence.
        throw std::invalid_argument(
            "run_multi_pair: adapt.min_threshold_dbm must stay above "
            "radio.audibility_floor_dbm");
    }
    if (config.rate_adapt != rate_adapt_mode::off && !config.unicast) {
        throw std::invalid_argument(
            "run_multi_pair: rate adaptation needs unicast ACK feedback");
    }
    // Declared before the network so the raw adapter pointers the nodes
    // hold stay valid for the nodes' whole lifetime.
    std::vector<std::unique_ptr<capacity::rate_adaptation>> adapters;
    network net(config.radio, config.seed);
    net.reserve_nodes(2 * n);
    mac_config sender_cfg;
    sender_cfg.sense = config.sense;
    sender_cfg.adapt = config.adapt;  // the per-node adaptation hook
    mac_config receiver_cfg;  // receivers never transmit
    std::vector<node_id> senders(n), receivers(n);
    for (std::size_t i = 0; i < n; ++i) {
        senders[i] = net.add_node(sender_cfg);
        receivers[i] = net.add_node(receiver_cfg);
    }

    const auto nodes = node_positions(topology);
    // Only set the gains the floor keeps: with the floor on, the spatial
    // grid finds them in O(N * k) instead of O(N^2).
    for (const auto& [a, b] : audible_link_pairs(topology, config)) {
        net.set_link_gain_db(a, b, config.gain_db(distance(nodes[a], nodes[b])));
    }
    for (std::size_t i = 0; i < n; ++i) {
        dcf_node& sender = net.node(senders[i]);
        if (config.unicast) {
            sender.set_traffic(traffic_mode::unicast, receivers[i],
                               *config.rate, config.payload_bytes);
        } else {
            sender.set_traffic(traffic_mode::broadcast, broadcast_id,
                               *config.rate, config.payload_bytes);
        }
        if (!config.traffic.saturated()) {
            sender.set_traffic_model(config.traffic);
        }
        switch (config.rate_adapt) {
            case rate_adapt_mode::off:
                break;
            case rate_adapt_mode::arf:
                adapters.push_back(std::make_unique<capacity::arf>());
                sender.set_rate_adaptation(adapters.back().get());
                break;
            case rate_adapt_mode::sample_rate:
                // Per-sender probe stream keyed to the run seed and the
                // pair index only, so shards and thread counts agree.
                adapters.push_back(std::make_unique<capacity::sample_rate>(
                    capacity::ofdm_rates(), config.payload_bytes,
                    stats::rng(config.seed)
                        .split("rate_adapt")
                        .split(static_cast<std::uint64_t>(i))
                        .next()));
                sender.set_rate_adaptation(adapters.back().get());
                break;
        }
    }

    // When adaptation is off, no manager exists and no epoch events are
    // scheduled: the event stream - and therefore the run - is identical
    // to one without any adaptation support.
    std::unique_ptr<adaptive_cs_manager> adaptation;
    if (config.adapt.enabled()) {
        std::vector<adaptive_cs_link> links;
        links.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            links.push_back({senders[i], receivers[i]});
        }
        adaptation = std::make_unique<adaptive_cs_manager>(
            net, std::move(links),
            stats::rng(config.seed).split("adaptive_cs").next());
        adaptation->start();
    }
    net.run(config.duration_us);

    multi_pair_result result;
    result.per_pair_pps.resize(n, 0.0);
    const double seconds = config.duration_us / 1e6;
    stats::kahan_sum total_pps;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& by_src = net.node(receivers[i]).stats().rx_decoded_by_src;
        const auto it = by_src.find(senders[i]);
        result.per_pair_pps[i] =
            (it != by_src.end()) ? it->second / seconds : 0.0;
        total_pps.add(result.per_pair_pps[i]);
    }
    result.total_pps = total_pps.value();
    result.counters = net.air().counters();
    for (std::size_t i = 0; i < n; ++i) {  // pair-index order: deterministic
        const dcf_node& sender = net.node(senders[i]);
        result.sojourn_us.merge(sender.sojourn_times());
        result.offered_packets += sender.stats().offered_packets;
        result.queue_drops += sender.stats().queue_drops;
        result.retry_drops += sender.stats().data_dropped;
    }
    if (result.offered_packets > 0) {
        result.drop_rate =
            static_cast<double>(result.queue_drops + result.retry_drops) /
            static_cast<double>(result.offered_packets);
    }
    if (adaptation) {
        result.final_cs_threshold_dbm = adaptation->thresholds_dbm();
        result.mean_threshold_trajectory_dbm =
            adaptation->mean_threshold_trajectory_dbm();
    }
    return result;
}

multi_pair_prediction predict_multi_pair(const multi_pair_topology& topology,
                                         const multi_pair_config& config) {
    const std::size_t n = topology.pairs();
    if (n < 1) {
        throw std::invalid_argument("predict_multi_pair: empty topology");
    }
    const double noise_mw =
        propagation::dbm_to_mw(config.radio.noise_floor_dbm);

    multi_pair_prediction prediction;
    // The cumulative-interference sum mixes a few strong terms with many
    // weak ones — exactly the regime where plain += drifts (and what
    // lint rule R4 exists to catch), so all three folds are compensated.
    stats::kahan_sum concurrent_sum;
    stats::kahan_sum multiplexing_sum;
    for (std::size_t i = 0; i < n; ++i) {
        const double signal_mw = propagation::dbm_to_mw(
            config.radio.tx_power_dbm +
            config.gain_db(distance(topology.senders[i],
                                    topology.receivers[i])));
        stats::kahan_sum interference_mw;
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            interference_mw.add(propagation::dbm_to_mw(
                config.radio.tx_power_dbm +
                config.gain_db(distance(topology.senders[j],
                                        topology.receivers[i]))));
        }
        concurrent_sum.add(capacity::shannon_bits_per_hz(
            signal_mw / (noise_mw + interference_mw.value())));
        multiplexing_sum.add(
            capacity::shannon_bits_per_hz(signal_mw / noise_mw) /
            static_cast<double>(n));
    }
    prediction.concurrent = concurrent_sum.value() / static_cast<double>(n);
    prediction.multiplexing =
        multiplexing_sum.value() / static_cast<double>(n);

    for (std::size_t a = 0; a < n && !prediction.cs_defers; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            const double sensed_dbm =
                config.radio.tx_power_dbm +
                config.gain_db(distance(topology.senders[a],
                                        topology.senders[b]));
            if (sensed_dbm >= config.radio.cs_threshold_dbm) {
                prediction.cs_defers = true;
                break;
            }
        }
    }
    return prediction;
}

}  // namespace csense::mac
