// Radio and MAC configuration shared by the packet-level simulator.
// Defaults follow the thesis' hardware (§3.2.2 fn. 5, §4): 15 dBm
// transmitters, a -95 dBm noise floor, energy-detection carrier sense
// near -82 dBm, 802.11a OFDM timing, and 1400-byte broadcast frames.
#pragma once

#include "src/capacity/rate_table.hpp"

namespace csense::mac {

/// How a node's clear-channel assessment decides "busy".
enum class cs_mode {
    disabled,             ///< never defer (the thesis' CS-off mode)
    energy,               ///< total received power above threshold
    preamble,             ///< busy only while a decoded preamble's frame is
                          ///< in the air (vulnerable to chain collisions)
    energy_and_preamble,  ///< either signal marks the channel busy
};

/// Sentinel for radio_config::audibility_floor_dbm: no culling, every
/// link with a gain set is audible.
inline constexpr double audibility_floor_disabled_dbm = -1.0e300;

/// Per-deployment radio constants.
struct radio_config {
    double tx_power_dbm = 15.0;
    double noise_floor_dbm = -95.0;
    double cs_threshold_dbm = -82.0;       ///< energy-detection threshold
    double preamble_threshold_dbm = -92.0; ///< preamble decode sensitivity
    double preamble_capture_snr_db = 4.0;  ///< SINR needed to lock onto a frame
    double cca_delay_us = 4.0;             ///< clear-channel-assessment lag;
                                           ///< the vulnerability window behind
                                           ///< slot collisions (must be < slot)
    double fading_sigma_db = 0.0;          ///< per-packet, per-link wideband
                                           ///< fading residue (lognormal dB)

    /// Medium-scaling knob: received powers below this floor are treated
    /// as exactly zero, and the medium culls such links from its per-node
    /// audibility neighbor lists (CSR), making every transmission event
    /// O(neighbors) instead of O(nodes). When fading_sigma_db > 0 the
    /// cull criterion is the link's *mean* rx power against the floor
    /// minus a 3-sigma fade allowance, so links whose faded tail can
    /// still cross a CCA threshold stay in the neighbor lists (the
    /// dropped tail is < 0.15% of frames). Recommended value for dense
    /// campaigns: noise_floor_dbm - 20 (a -115 dBm signal moves a -95 dBm
    /// noise floor by < 0.02 dB). Caveat: the floor is per-link, but
    /// culled links are dropped individually while their *aggregate*
    /// adds up - with thousands of simultaneous far transmitters the
    /// summed sub-floor power can approach the noise floor, so at
    /// extreme densities pick the floor with the aggregate in mind
    /// (camp05 quantifies this per density as its
    /// `culled_residual_*_dbm` metrics). Must sit below preamble_threshold_dbm
    /// and below every carrier-sense threshold the run can reach, or
    /// culling would change CCA/preamble semantics rather than just
    /// dropping negligible power; the medium constructor enforces this
    /// against preamble_threshold_dbm and cs_threshold_dbm, and callers
    /// installing per-node overrides (cs_adaptation_config::
    /// min_threshold_dbm, mac_config::cs_threshold_offset_db) must keep
    /// them above the floor too. Default: disabled - every link with a
    /// gain set stays audible, so each node has N - 1 neighbors.
    double audibility_floor_dbm = audibility_floor_disabled_dbm;

    /// Medium-scaling knob: every this-many
    /// transmission *ends* the medium rebuilds each node's running
    /// external-power sum exactly from the active transmissions, so the
    /// compensated incremental accounting can never drift over long
    /// runs. Keyed to event counts, never wall clock, so runs stay
    /// deterministic. <= 0 disables the periodic refresh (the
    /// Kahan-compensated sums and the exact reset whenever a node's
    /// audible set empties still bound the error).
    int power_refresh_interval = 4096;

    /// True when audibility_floor_dbm is set (sub-floor links culled).
    bool audibility_enabled() const noexcept {
        return audibility_floor_dbm > audibility_floor_disabled_dbm;
    }
};

/// How a node's closed-loop carrier-sense threshold controller moves
/// `cs_threshold_dbm` between adaptation epochs (src/mac/adaptive_cs.hpp).
enum class cs_adapt_policy {
    fixed,                 ///< static threshold: adaptation machinery off
    aimd,                  ///< additive raise while clean, multiplicative
                           ///< (in dB) back-off on a loss signal
    target_busy,           ///< integral control of the sensed busy-time
                           ///< fraction to a set point
    iterative_fixed_point, ///< online Kim & Kim balance: step the threshold
                           ///< until the measured concurrent capacity
                           ///< equals the fair TDMA share
};

/// Per-node knobs of the closed-loop threshold controller. All dB/dBm
/// fields act on the node's *effective* energy-detection threshold (the
/// dcf_node override that replaces radio_config::cs_threshold_dbm +
/// mac_config::cs_threshold_offset_db once adaptation is enabled).
struct cs_adaptation_config {
    /// Which control law runs; `fixed` disables adaptation entirely (no
    /// epoch events are scheduled, so a run is byte-identical to one
    /// without any adaptation support).
    cs_adapt_policy policy = cs_adapt_policy::fixed;

    /// Adaptation epoch in microseconds: the controller samples its
    /// EWMAs and moves the threshold once per epoch.
    double epoch_us = 50'000.0;

    /// Hard clamp for the adapted threshold, dBm. Every policy's output
    /// is clamped to [min_threshold_dbm, max_threshold_dbm].
    double min_threshold_dbm = -95.0;
    double max_threshold_dbm = -60.0;  ///< see min_threshold_dbm

    /// Weight of the newest epoch in the busy/loss/goodput/interference
    /// EWMAs, in (0, 1]; 1 trusts each epoch alone.
    double ewma_weight = 0.25;

    /// target_busy: busy-time-fraction set point. The threshold moves by
    /// busy_gain_db * (busy EWMA - busy_target) per epoch, so a channel
    /// sensed busier than the target raises (deafens) the threshold.
    /// <= 0 (the default) selects the density-aware auto rule
    /// 1 - busy_idle_scale / contenders: with n saturated senders the
    /// idle fraction at a well-tuned threshold shrinks like 1/n.
    double busy_target = 0.0;

    /// target_busy: idle-fraction scale of the auto set point (see
    /// busy_target). Calibrated so the equilibrium threshold tracks the
    /// offline-tuned optimum across densities.
    double busy_idle_scale = 3.8;

    /// target_busy: proportional gain, dB of threshold per unit of
    /// busy-fraction error. Calibrated against camp03: larger gains
    /// track faster but oscillate around the set point at high density.
    double busy_gain_db = 6.0;

    /// aimd: additive threshold increase per clean epoch, dB.
    double ai_step_db = 0.5;

    /// aimd: threshold decrease on a congested epoch, dB (multiplicative
    /// in linear power).
    double md_backoff_db = 3.0;

    /// aimd: loss-rate EWMA above which an epoch counts as congested.
    double loss_target = 0.15;

    /// iterative_fixed_point: gain on the capacity-balance step, dB of
    /// threshold per doubling of the concurrent/fair-share capacity
    /// ratio. The balance compares the link's Shannon capacity against
    /// the marginal admitted contender (sensed exactly at the current
    /// threshold; the pairwise D >> r approximation) with the fair
    /// half share, so the fixed point is the node-local analogue of the
    /// offline concurrency/multiplexing crossing.
    double fp_gain_db = 8.0;

    /// Optional exploration dither, dB, drawn uniformly in
    /// [-jitter_db/2, +jitter_db/2] from the node's split RNG stream
    /// each epoch. 0 keeps every policy fully deterministic.
    double jitter_db = 0.0;

    /// True when the policy actually adapts (anything but `fixed`).
    bool enabled() const noexcept { return policy != cs_adapt_policy::fixed; }
};

/// Arrival process of a node's offered traffic (src/mac/traffic.hpp
/// turns this into a traffic_source).
enum class traffic_model {
    saturated,  ///< always backlogged: a new frame the instant one
                ///< finishes (the historical behaviour, and the default)
    poisson,    ///< memoryless arrivals at offered_load_pps
    cbr,        ///< constant bit rate: fixed 1e6/offered_load_pps spacing
    on_off,     ///< interrupted Poisson: exponential on/off envelope with
                ///< Poisson arrivals while on, duty-cycle-scaled so the
                ///< long-run mean is still offered_load_pps
};

/// Traffic + queue knobs of one node. The default (saturated, and any
/// queue capacity) reproduces the pre-queue event sequence exactly: no
/// arrival events are scheduled and the node refills inline.
struct traffic_config {
    traffic_model model = traffic_model::saturated;

    /// Long-run mean offered load, packets/second. Ignored by the
    /// saturated model; must be > 0 for every other model.
    double offered_load_pps = 100.0;

    /// on_off only: mean burst / silence durations of the exponential
    /// envelope, microseconds.
    double on_mean_us = 10'000.0;
    double off_mean_us = 10'000.0;  ///< see on_mean_us

    /// Finite FIFO capacity: packets that may wait behind the one in
    /// service. Arrivals beyond this are dropped and counted
    /// (node_stats::queue_drops).
    int queue_capacity = 64;

    /// True for the always-backlogged model (no arrival machinery).
    bool saturated() const noexcept {
        return model == traffic_model::saturated;
    }
};

/// Per-node MAC behaviour.
struct mac_config {
    cs_mode sense = cs_mode::energy_and_preamble;
    double cs_threshold_offset_db = 0.0;  ///< per-node calibration error
                                          ///< (threshold asymmetry pathology)
    int cw_min = 15;
    int cw_max = 1023;
    int retry_limit = 7;       ///< unicast retries (broadcast never retries)
    bool use_rts_cts = false;  ///< static RTS/CTS for unicast data
    bool adaptive_rts_cts = false;  ///< §5 heuristic: enable RTS/CTS only
                                    ///< when loss is high despite high RSSI
    double rts_loss_threshold = 0.4;   ///< loss EWMA that triggers RTS/CTS
    double rts_snr_threshold_db = 15.0;///< only if SNR is at least this

    /// Closed-loop carrier-sense threshold adaptation (defaults to
    /// `fixed`, i.e. off). adaptive_cs_manager reads this per-node
    /// config to build the node's controller and drives the
    /// dcf_node::set_cs_threshold_dbm override every epoch (multi-pair
    /// runs copy multi_pair_config::adapt here and install the manager
    /// automatically when the policy is enabled).
    cs_adaptation_config adapt;
};

/// Control-frame sizes in bytes (802.11 MAC).
struct control_frames {
    static constexpr int rts_bytes = 20;
    static constexpr int cts_bytes = 14;
    static constexpr int ack_bytes = 14;
};

}  // namespace csense::mac
