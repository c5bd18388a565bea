// The shared wireless medium: link gains, active transmissions,
// SINR-tracked receptions, and carrier-sense power notifications.
//
// Reception model (matching the thesis' §4 hardware notes):
//  - a receiver locks onto a frame at preamble time if it is not
//    transmitting, not already locked, the received power exceeds the
//    preamble sensitivity, and the instantaneous SINR exceeds the
//    capture threshold (radio_config::preamble_capture_snr_db);
//  - there is no receive abort: once locked, a stronger later frame is
//    just interference (the thesis notes its testbed ran this way);
//  - the frame decodes with probability 1 - PER evaluated at the worst
//    SINR observed during the reception;
//  - nodes that are transmitting hear nothing - the root of the
//    "chain collision" pathology for preamble-based carrier sense.
//
// Scaling model: the topology freezes into per-node audibility
// neighbor lists (CSR) at the first transmission, per-link rx powers
// are precomputed in mW, and each node carries an incremental
// Kahan-compensated running external-power sum updated on tx start/end
// - so channel updates, preamble fan-out, and SINR tracking touch only
// audible neighbors: O(k) per event. radio_config::audibility_floor_dbm
// decides which links are audible. Left at its sentinel, every link
// with a gain set is audible and each row holds all N - 1 other nodes;
// set, links whose received power falls below the floor are treated as
// exactly zero and dropped from the rows, making k independent of N.
// External power has one definition either way: the noise floor plus
// the running sum. An exact reset whenever a node's audible set empties
// plus a periodic exact refresh (radio_config::power_refresh_interval)
// keep the incremental sums drift-free and deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/capacity/error_models.hpp"
#include "src/mac/frame.hpp"
#include "src/mac/wireless_config.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/rng.hpp"

namespace csense::mac {

/// Callbacks a node registers with the medium.
class medium_listener {
public:
    virtual ~medium_listener() = default;

    /// Total external (not self-generated) power at this node changed.
    virtual void on_channel_update(double external_power_dbm) = 0;

    /// A decodable preamble passed by (node idle or locked, power above
    /// sensitivity). `until` is the frame's scheduled end time.
    virtual void on_preamble(const frame& f, double rx_power_dbm,
                             sim::time_us until) = 0;

    /// A locked reception finished. `decoded` reflects the PER draw at
    /// the worst SINR seen during the frame.
    virtual void on_frame_received(const frame& f, double rx_power_dbm,
                                   double min_sinr_db, bool decoded) = 0;

    /// This node's own transmission left the air.
    virtual void on_tx_complete(const frame& f) = 0;
};

/// Network-wide pathology counters (§5's implementation corner cases).
struct medium_counters {
    std::uint64_t transmissions = 0;
    std::uint64_t slot_collisions = 0;  ///< mutual-sensers starting within
                                        ///< one slot of each other
    std::uint64_t chain_collisions = 0; ///< tx started over an audible
                                        ///< frame whose preamble was missed
    std::uint64_t busy_starts = 0;      ///< tx started over any audible frame
};

/// The medium itself.
class medium {
public:
    /// Throws std::invalid_argument when the audibility floor is enabled
    /// but not below the preamble sensitivity (culling must only drop
    /// power that is negligible for every CCA decision).
    medium(sim::simulator& sim, radio_config radio,
           const capacity::error_model& errors, std::uint64_t seed);

    /// Register a node; ids must be assigned densely from 0.
    node_id add_node(medium_listener& listener);

    /// Pre-size internal per-node storage for `nodes` registrations.
    /// Purely an allocation hint - results never depend on it.
    void reserve_nodes(std::size_t nodes);

    std::size_t node_count() const noexcept { return listeners_.size(); }

    /// Symmetric link gain in dB (negative; rx = tx_power + gain).
    /// Throws std::invalid_argument on an unknown node id or a == b, and
    /// std::logic_error when setting a gain after the topology froze.
    void set_link_gain_db(node_id a, node_id b, double gain_db);
    double link_gain_db(node_id a, node_id b) const;

    /// Received power at `rx` of a transmission from `tx`, in dBm.
    double rx_power_dbm(node_id tx, node_id rx) const;

    /// Begin transmitting; the frame occupies the air for its airtime and
    /// the medium schedules all consequences. A node must not already be
    /// transmitting. `cs_said_idle` lets the medium classify pathological
    /// starts (it does not change behaviour).
    void start_transmission(node_id src, const frame& f, bool cs_said_idle);

    /// True if the node is currently transmitting. Throws
    /// std::invalid_argument on an unknown node id.
    bool transmitting(node_id n) const;

    /// Total external power at a node right now, in dBm (noise floor when
    /// the air is silent).
    double external_power_dbm(node_id n) const;

    const medium_counters& counters() const noexcept { return counters_; }
    const radio_config& radio() const noexcept { return radio_; }

    /// Audible neighbors of `n`: row size of its CSR neighbor list. The
    /// topology must be frozen first (any transmission freezes it).
    std::size_t neighbor_count(node_id n) const;

    /// Transmission-log entries currently held. Compaction clears the
    /// log at quiet moments so long runs stay O(active); exposed for the
    /// bounded-memory regression tests.
    std::size_t transmission_log_size() const noexcept {
        return transmissions_.size();
    }

private:
    struct transmission {
        frame f;
        node_id src;
        sim::time_us start;
        sim::time_us end;
        bool active = true;
        /// With fading: faded rx power in mW per CSR neighbor slot of
        /// src. Empty without fading (the frame then reads the
        /// precomputed unfaded row directly).
        std::vector<double> rx_mw;
    };

    struct reception {
        std::size_t tx_index;   ///< into transmissions_
        node_id rx;
        double signal_mw;
        double min_sinr_db;
        bool active = true;
    };

    void check_node(node_id n, const char* what) const;
    /// Noise floor plus the clamped incremental sum - the one definition
    /// of external power behind every read (public accessor, CCA
    /// notifications, interference subtraction).
    double external_power_mw(node_id n) const;
    void end_transmission(std::size_t tx_index);
    void maybe_compact_log();

    static std::uint64_t link_key(node_id a, node_id b) noexcept;
    void freeze_topology();
    /// Per-slot rx power (mW) of a transmission over its CSR row.
    const double* row_rx_mw(const transmission& t) const;
    void refresh_power_sums();
    void notify_neighbors_after_cca(node_id src);

    sim::simulator& sim_;
    radio_config radio_;
    const capacity::error_model& errors_;
    stats::rng rng_;
    std::vector<medium_listener*> listeners_;

    // Sparse symmetric gains keyed by (min, max) node id; stays
    // authoritative for link_gain_db after the freeze.
    std::unordered_map<std::uint64_t, double> sparse_gains_;
    bool frozen_ = false;
    // CSR audibility neighbor lists, built at freeze time: row n holds
    // the ids that can hear n (and that n can hear - gains are
    // symmetric), sorted ascending, with the unfaded rx power in mW.
    std::vector<std::uint32_t> nbr_offset_;
    std::vector<node_id> nbr_id_;
    std::vector<double> nbr_rx_mw_;
    // Incremental per-node external power (mW, excluding the noise
    // floor) and the number of active audible transmissions behind it.
    std::vector<stats::kahan_sum> ext_mw_;
    std::vector<std::uint32_t> audible_count_;
    int ends_since_refresh_ = 0;
    /// One settled reception, staged so delivery callbacks run after
    /// all lock bookkeeping (they may re-enter start_transmission).
    struct delivery {
        node_id rx;
        double power_dbm;
        double sinr;
        bool decoded;
    };
    /// Reused by end_transmission: capacity reaches its high-water mark
    /// once, then the per-event hot path allocates nothing.
    std::vector<delivery> delivery_scratch_;
    // Thresholds precomputed in mW so hot loops compare linearly.
    double noise_mw_ = 0.0;
    double preamble_threshold_mw_ = 0.0;
    double cs_threshold_mw_ = 0.0;

    std::vector<transmission> transmissions_;
    std::vector<std::size_t> active_tx_;        ///< indices of active entries
    std::vector<std::uint8_t> tx_flag_by_node_; ///< 1 while a node is on air
    std::vector<std::int64_t> active_tx_by_node_;  ///< transmissions_ index,
                                                   ///< -1 when off air
    std::vector<std::optional<reception>> lock_by_node_;
    std::size_t active_count_ = 0;
    medium_counters counters_;
};

}  // namespace csense::mac
