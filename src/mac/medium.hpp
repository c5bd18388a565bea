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
// Scaling model: link gains are kept as one list of (link, gain)
// sorted by link key, so a caller that sets links in key order appends
// in O(1) and a lookup is a binary search. The topology freezes at the
// first transmission: one counting-sort pass over that list in key
// order builds per-node audibility neighbor lists (CSR) whose rows come
// out sorted by neighbor id, with per-link rx powers precomputed in mW.
// Each node carries an incremental Kahan-compensated running
// external-power sum updated on tx start/end - so CCA callbacks,
// preamble fan-out, and SINR tracking touch only audible neighbors:
// O(k) per event. Each frame edge walks the sender's row once: a start
// does the pathology check, the power add, the SINR update of existing
// locks and the preamble/lock decision for each neighbor in the same
// pass, and an end removes the power and settles the locks on the frame
// in one pass. Each edge also schedules one event: its CCA event, which
// after cca_delay_us first announces the start's decodable preambles
// (kept in the frame's slot, in row order) and then lets the neighbors
// sense the new power. The per-neighbor work is linear arithmetic: energy
// CCA compares the sensed mW against each node's exact mW threshold
// boundary and calls the listener only when the busy state flips, and
// locked receptions track their worst interference in mW, converted to
// a dB SINR once when the frame settles. radio_config::audibility_floor_dbm
// decides which links are audible. Left at its sentinel, every link
// with a gain set is audible and each row holds all N - 1 other nodes;
// set, links whose received power falls below the floor are treated as
// exactly zero and dropped from the rows, making k independent of N.
// External power has one definition either way: the noise floor plus
// the running sum. The sums are deterministic because frame edges run
// in simulator order. The compensated sum is never rebuilt: it stays
// within an ulp of the exact value over 10^7 frame edges against an
// exact fixed-point oracle (tests/test_kahan.cpp), and an exact reset
// whenever a node's audible set empties clears what rounding remains.
#pragma once

#include <cstdint>
#include <optional>
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

    /// This node's energy CCA flipped: `busy` is whether the external
    /// (not self-generated) power it senses is at or above its
    /// carrier-sense threshold. Called only on a change.
    virtual void on_energy_busy(bool busy) = 0;

    /// A decodable preamble passed by (node idle or locked, power above
    /// sensitivity). `until` is the frame's scheduled end time.
    virtual void on_preamble(sim::time_us until) = 0;

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
    std::uint64_t cca_visits = 0;       ///< neighbor entries visited by CCA
                                        ///< callbacks
    std::uint64_t cca_flips = 0;        ///< energy-CCA changes (one
                                        ///< on_energy_busy call each)
};

/// The medium itself.
class medium {
public:
    /// Throws std::invalid_argument when the audibility floor is enabled
    /// but not below the preamble sensitivity (culling must only drop
    /// power that is negligible for every CCA decision), and unless
    /// cca_delay_us is finite, >= 0 and below one slot (which also keeps
    /// it below the shortest airtime, so a frame's slot outlives its
    /// start-edge CCA event).
    medium(sim::simulator& sim, radio_config radio,
           const capacity::error_model& errors, std::uint64_t seed);

    /// Register a node with its initial energy-detect threshold (dBm);
    /// ids are assigned densely from 0. The node starts CCA-idle: the
    /// threshold is first evaluated at its first CCA callback. Throws
    /// std::invalid_argument on a non-finite threshold.
    node_id add_node(medium_listener& listener, double cs_threshold_dbm);

    /// Pre-size internal per-node storage for `nodes` registrations.
    /// Purely an allocation hint - results never depend on it.
    void reserve_nodes(std::size_t nodes);

    std::size_t node_count() const noexcept { return listeners_.size(); }

    /// Symmetric link gain in dB (negative; rx = tx_power + gain).
    /// Setting a link again overwrites its gain. Links set in key order
    /// ((min, max) node id ascending) append in O(1); any other order
    /// costs an insertion into the sorted link list. Throws
    /// std::invalid_argument on an unknown node id, a == b or a
    /// non-finite gain, and std::logic_error when setting a gain after
    /// the topology froze.
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

    /// Replace a node's energy-detect threshold (dBm). The busy state is
    /// re-evaluated against the power sensed at the node's last CCA
    /// callback immediately, so a threshold step behaves exactly like a
    /// channel power change (on_energy_busy fires on a flip). Throws
    /// std::invalid_argument on an unknown node or a non-finite threshold.
    void set_cs_threshold_dbm(node_id n, double threshold_dbm);

    /// Time integral of the external power sensed at a node's CCA
    /// callbacks (mW x us), up to the current instant. An epoch delta
    /// divided by the epoch length is the mean sensed interference power
    /// (noise floor included).
    double external_power_integral_mw_us(node_id n) const;

    const medium_counters& counters() const noexcept { return counters_; }
    const radio_config& radio() const noexcept { return radio_; }

    /// Audible neighbors of `n`: row size of its CSR neighbor list. The
    /// topology must be frozen first (any transmission freezes it).
    std::size_t neighbor_count(node_id n) const;

    /// Transmission slots held: an ended frame frees its slot for the
    /// next start, so this is the most frames ever on the air at once.
    /// Exposed for the bounded-memory regression tests.
    std::size_t transmission_log_size() const noexcept {
        return transmissions_.size();
    }

private:
    struct transmission {
        frame f;
        node_id src;
        sim::time_us start;
        sim::time_us end;
        /// With fading: faded rx power in mW per CSR neighbor slot of
        /// src. Empty without fading (the frame then reads the
        /// precomputed unfaded row directly).
        std::vector<double> rx_mw;
        /// Neighbors that decoded the preamble, in row order; announced
        /// by the start-edge CCA event. Both vectors keep their capacity
        /// when the slot is reused.
        std::vector<node_id> decodable;
    };

    struct reception {
        std::size_t tx_index;   ///< into transmissions_
        node_id rx;
        double signal_mw;
        /// Worst interference seen during the frame. 10*log10 is
        /// monotone, so the frame's worst SINR is the signal over this.
        double max_interference_mw;
    };

    /// One node's energy CCA: the threshold as an exact mW boundary
    /// (propagation::dbm_boundary_mw), the busy state the listener last
    /// heard, and the sensed-power integral.
    struct cca_state {
        double threshold_mw;
        double last_mw;            ///< power sensed at the last callback
        double integral_mw_us = 0.0;  ///< of last_mw, up to mark_us
        sim::time_us mark_us = 0.0;
        bool busy = false;

        /// Senses `power_mw` at `now`; true when the busy state flipped.
        bool sense(double power_mw, sim::time_us now);
    };

    void check_node(node_id n, const char* what) const;
    /// Noise floor plus the clamped incremental sum - the one definition
    /// of external power behind every read (public accessor, CCA
    /// notifications, interference subtraction).
    double external_power_mw(node_id n) const;
    void end_transmission(std::size_t tx_index);

    static std::uint64_t link_key(node_id a, node_id b) noexcept;
    void freeze_topology();
    /// Per-slot rx power (mW) of a transmission over its CSR row.
    const double* row_rx_mw(const transmission& t) const;
    /// The CCA event of a frame edge: after cca_delay_us, announce the
    /// decodable preambles of the frame in slot `tx_index` (a start
    /// edge; no_preambles for an end edge), then let src's neighbors
    /// sense the changed power.
    void schedule_cca(node_id src, std::size_t tx_index);
    static constexpr std::size_t no_preambles = ~std::size_t{0};
    /// Tells node n's listener about a busy flip.
    void report_flip(node_id n);

    sim::simulator& sim_;
    radio_config radio_;
    const capacity::error_model& errors_;
    stats::rng rng_;
    std::vector<medium_listener*> listeners_;

    /// One symmetric link: key (min, max) node id, gain in dB.
    struct link {
        std::uint64_t key;
        double gain_db;
    };
    // Every link with a gain set, sorted by key (unique keys); stays
    // authoritative for link_gain_db after the freeze.
    std::vector<link> links_;
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
    std::vector<cca_state> cca_;
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

    /// Slot table of frames on the air; free_slots_ lists the unused ones.
    std::vector<transmission> transmissions_;
    std::vector<std::size_t> free_slots_;
    /// Per node: the transmissions_ slot of its frame on the air, -1
    /// when off air (a node sends one frame at a time).
    std::vector<std::int32_t> tx_slot_by_node_;
    /// Per node: the reception it is locked onto, if any.
    std::vector<std::optional<reception>> lock_by_node_;
    medium_counters counters_;
};

}  // namespace csense::mac
