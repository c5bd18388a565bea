#include "src/mac/medium.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/propagation/units.hpp"

namespace csense::mac {

namespace {
constexpr double very_weak_gain_db = -500.0;
/// Positive floor for interference computed by subtraction, so mw_to_dbm
/// never sees a non-positive argument even if compensated rounding dips
/// below zero.
constexpr double min_positive_mw = 1e-300;

/// First entry of a key-sorted link list whose key is not below `key`.
template <class Links>
auto lower_link(Links& links, std::uint64_t key) {
    return std::lower_bound(
        links.begin(), links.end(), key,
        [](const auto& l, std::uint64_t k) { return l.key < k; });
}
}  // namespace

medium::medium(sim::simulator& sim, radio_config radio,
               const capacity::error_model& errors, std::uint64_t seed)
    : sim_(sim), radio_(radio), errors_(errors), rng_(seed) {
    if (radio_.audibility_enabled() &&
        (radio_.audibility_floor_dbm >= radio_.preamble_threshold_dbm ||
         radio_.audibility_floor_dbm >= radio_.cs_threshold_dbm)) {
        throw std::invalid_argument(
            "medium: audibility_floor_dbm must sit below both "
            "preamble_threshold_dbm and cs_threshold_dbm - culling may only "
            "drop power that is negligible for every CCA and preamble "
            "decision (per-node overrides, e.g. "
            "cs_adaptation_config::min_threshold_dbm, must be kept above "
            "the floor by the caller)");
    }
    // The start-edge CCA event reads the frame's slot, which the frame
    // holds until it ends; every airtime exceeds one slot. Negated
    // comparisons, so a NaN fails them too.
    if (!(radio_.cca_delay_us >= 0.0 &&
          radio_.cca_delay_us < capacity::ofdm_timing::slot_us)) {
        throw std::invalid_argument(
            "medium: cca_delay_us must be finite, >= 0 and below one slot");
    }
    noise_mw_ = propagation::dbm_to_mw(radio_.noise_floor_dbm);
    preamble_threshold_mw_ =
        propagation::dbm_to_mw(radio_.preamble_threshold_dbm);
    cs_threshold_mw_ = propagation::dbm_to_mw(radio_.cs_threshold_dbm);
}

void medium::check_node(node_id n, const char* what) const {
    if (n >= listeners_.size()) {
        throw std::invalid_argument(std::string(what) + ": bad node");
    }
}

void medium::reserve_nodes(std::size_t nodes) {
    listeners_.reserve(nodes);
    lock_by_node_.reserve(nodes);
    tx_slot_by_node_.reserve(nodes);
    ext_mw_.reserve(nodes);
    audible_count_.reserve(nodes);
    cca_.reserve(nodes);
    links_.reserve(nodes * 8);
}

node_id medium::add_node(medium_listener& listener, double cs_threshold_dbm) {
    if (frozen_ || !transmissions_.empty()) {
        throw std::logic_error("medium::add_node: topology is frozen once "
                               "transmissions begin");
    }
    const double threshold_mw = propagation::dbm_boundary_mw(cs_threshold_dbm);
    const auto id = static_cast<node_id>(listeners_.size());
    listeners_.push_back(&listener);
    lock_by_node_.emplace_back();
    tx_slot_by_node_.push_back(-1);
    ext_mw_.emplace_back();
    audible_count_.push_back(0);
    cca_.push_back(cca_state{threshold_mw, noise_mw_});
    return id;
}

std::uint64_t medium::link_key(node_id a, node_id b) noexcept {
    const node_id lo = a < b ? a : b;
    const node_id hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void medium::set_link_gain_db(node_id a, node_id b, double gain_db) {
    const std::size_t n = listeners_.size();
    if (a >= n || b >= n || a == b) {
        throw std::invalid_argument("medium::set_link_gain_db: bad link");
    }
    // A NaN would read as "no link" at the freeze and +inf would turn a
    // neighbour's running sum into inf - inf = NaN.
    if (!std::isfinite(gain_db)) {
        throw std::invalid_argument(
            "medium::set_link_gain_db: gain must be finite");
    }
    if (frozen_) {
        throw std::logic_error(
            "medium::set_link_gain_db: neighbor lists are frozen once "
            "transmissions begin");
    }
    const std::uint64_t key = link_key(a, b);
    if (links_.empty() || links_.back().key < key) {
        links_.push_back({key, gain_db});
        return;
    }
    const auto it = lower_link(links_, key);
    if (it->key == key) {
        it->gain_db = gain_db;
    } else {
        links_.insert(it, {key, gain_db});
    }
}

double medium::link_gain_db(node_id a, node_id b) const {
    const std::size_t n = listeners_.size();
    if (a >= n || b >= n || a == b) {
        throw std::invalid_argument("medium::link_gain_db: bad link");
    }
    const std::uint64_t key = link_key(a, b);
    const auto it = lower_link(links_, key);
    return it != links_.end() && it->key == key ? it->gain_db
                                                : very_weak_gain_db;
}

double medium::rx_power_dbm(node_id tx, node_id rx) const {
    return radio_.tx_power_dbm + link_gain_db(tx, rx);
}

bool medium::transmitting(node_id n) const {
    check_node(n, "medium::transmitting");
    return tx_slot_by_node_[n] >= 0;
}

std::size_t medium::neighbor_count(node_id n) const {
    check_node(n, "medium::neighbor_count");
    if (!frozen_) {
        throw std::logic_error(
            "medium::neighbor_count: neighbor lists are built when the "
            "topology freezes (at the first transmission)");
    }
    return nbr_offset_[n + 1] - nbr_offset_[n];
}

void medium::freeze_topology() {
    frozen_ = true;
    const std::size_t n = listeners_.size();
    nbr_offset_.assign(n + 1, 0);
    // Fading can lift a link above its mean: keep every link whose
    // *mean* rx power reaches the floor after a 3-sigma fade allowance
    // (the dropped tail is < 0.15% of frames), so the culled set still
    // only loses power that is negligible for CCA when fading is on.
    // With the floor at its disabled sentinel every finite rx power
    // passes, so every link with a gain set is audible.
    const double effective_floor_dbm =
        radio_.audibility_floor_dbm - 3.0 * radio_.fading_sigma_db;
    const auto audible = [&](double gain_db) {
        return radio_.tx_power_dbm + gain_db >= effective_floor_dbm;
    };
    for (const auto& [key, gain] : links_) {
        if (!audible(gain)) continue;
        ++nbr_offset_[(key >> 32) + 1];
        ++nbr_offset_[(key & 0xffffffffULL) + 1];
    }
    std::partial_sum(nbr_offset_.begin(), nbr_offset_.end(),
                     nbr_offset_.begin());
    nbr_id_.resize(nbr_offset_[n]);
    nbr_rx_mw_.resize(nbr_offset_[n]);
    // Counting-sort fill in key order: row v first receives every lower
    // neighbor a (from links (a, v), ascending in a), then every higher
    // one (from links (v, b), ascending in b), so each row comes out
    // sorted by neighbor id and fan-out order - with it fading draws
    // and delivery callbacks - is a function of the topology alone.
    std::vector<std::uint32_t> cursor(nbr_offset_.begin(),
                                      nbr_offset_.end() - 1);
    for (const auto& [key, gain] : links_) {
        if (!audible(gain)) continue;
        const auto a = static_cast<node_id>(key >> 32);
        const auto b = static_cast<node_id>(key & 0xffffffffULL);
        // rx power is symmetric: common tx power plus the symmetric gain.
        const double mw = propagation::dbm_to_mw(radio_.tx_power_dbm + gain);
        nbr_id_[cursor[a]] = b;
        nbr_rx_mw_[cursor[a]++] = mw;
        nbr_id_[cursor[b]] = a;
        nbr_rx_mw_[cursor[b]++] = mw;
    }
}

const double* medium::row_rx_mw(const transmission& t) const {
    return t.rx_mw.empty() ? nbr_rx_mw_.data() + nbr_offset_[t.src]
                           : t.rx_mw.data();
}

double medium::external_power_mw(node_id n) const {
    return noise_mw_ + std::max(ext_mw_[n].value(), 0.0);
}

double medium::external_power_dbm(node_id n) const {
    check_node(n, "medium::external_power_dbm");
    return propagation::mw_to_dbm(external_power_mw(n));
}

void medium::set_cs_threshold_dbm(node_id n, double threshold_dbm) {
    check_node(n, "medium::set_cs_threshold_dbm");
    cca_state& cca = cca_[n];
    cca.threshold_mw = propagation::dbm_boundary_mw(threshold_dbm);
    const bool busy = cca.last_mw >= cca.threshold_mw;
    if (busy != cca.busy) {
        cca.busy = busy;
        report_flip(n);
    }
}

double medium::external_power_integral_mw_us(node_id n) const {
    check_node(n, "medium::external_power_integral_mw_us");
    const cca_state& cca = cca_[n];
    return cca.integral_mw_us + cca.last_mw * (sim_.now() - cca.mark_us);
}

bool medium::cca_state::sense(double power_mw, sim::time_us now) {
    integral_mw_us += last_mw * (now - mark_us);
    mark_us = now;
    last_mw = power_mw;
    const bool now_busy = power_mw >= threshold_mw;
    if (now_busy == busy) return false;
    busy = now_busy;
    return true;
}

void medium::report_flip(node_id n) {
    ++counters_.cca_flips;
    listeners_[n]->on_energy_busy(cca_[n].busy);
}

void medium::schedule_cca(node_id src, std::size_t tx_index) {
    // Clear-channel assessment takes time: nodes learn about a power
    // change cca_delay_us after it happens, and see the power as it is
    // *then*. The stale window is what permits slot collisions. Only
    // the audible neighbors of the changed transmitter saw any power
    // move, so only they sense it; the transmitter's own external power
    // did not change, so it does not. A listener hears only flips of
    // its energy CCA.
    sim_.schedule_in(radio_.cca_delay_us, [this, src, tx_index] {
        if (tx_index != no_preambles) {
            // Preamble detection shares the lag and comes first. The
            // frame still holds its slot (airtime > cca_delay_us), but a
            // listener may re-enter start_transmission and grow the slot
            // table, so each step re-reads the slot by index.
            const sim::time_us until = transmissions_[tx_index].end;
            for (std::size_t k = 0;
                 k < transmissions_[tx_index].decodable.size(); ++k) {
                listeners_[transmissions_[tx_index].decodable[k]]
                    ->on_preamble(until);
            }
        }
        const sim::time_us now = sim_.now();
        const std::size_t begin = nbr_offset_[src];
        const std::size_t end = nbr_offset_[src + 1];
        counters_.cca_visits += end - begin;
        for (std::size_t s = begin; s < end; ++s) {
            const node_id n = nbr_id_[s];
            if (cca_[n].sense(external_power_mw(n), now)) report_flip(n);
        }
    });
}

void medium::start_transmission(node_id src, const frame& f,
                                bool cs_said_idle) {
    check_node(src, "medium::start_transmission");
    if (tx_slot_by_node_[src] >= 0) {
        throw std::logic_error("medium::start_transmission: already on air");
    }
    if (!frozen_) freeze_topology();
    ++counters_.transmissions;
    const sim::time_us now = sim_.now();
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];
    // A transmitter abandons any reception in progress.
    lock_by_node_[src].reset();

    // Take a free slot (ended frames return theirs), so the table stays
    // as large as the most frames ever on the air at once.
    std::size_t index = transmissions_.size();
    if (free_slots_.empty()) {
        transmissions_.emplace_back();
    } else {
        index = free_slots_.back();
        free_slots_.pop_back();
    }
    transmission& t = transmissions_[index];
    t.f = f;
    t.src = src;
    t.start = now;
    t.end = now + f.airtime_us();
    t.rx_mw.clear();
    t.decodable.clear();
    const bool fading = radio_.fading_sigma_db > 0.0;
    if (fading) t.rx_mw.resize(end - begin);
    tx_slot_by_node_[src] = static_cast<std::int32_t>(index);

    // One pass over the row. Each step reads and writes only neighbor
    // n's own sum, lock and slot, and fade draws stay in row order, so
    // the pass equals separate passes for each concern.
    bool audible = false;
    bool mutual_recent_start = false;
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        double power_mw = nbr_rx_mw_[s];
        if (fading) {
            // Fade draws only for the audible neighbors, folded straight
            // into the precomputed rx power.
            const double fade_db = radio_.fading_sigma_db * rng_.normal();
            power_mw *= propagation::db_to_linear(fade_db);
            t.rx_mw[s - begin] = power_mw;
        }
        // Incremental power accounting: this frame's rx power joins the
        // neighbor's running external sum.
        ext_mw_[n].add(power_mw);
        ++audible_count_[n];
        const std::int32_t ti = tx_slot_by_node_[n];
        if (ti >= 0) {
            // Pathology accounting: did this start overlap an audible
            // frame? Unfaded sensed power, symmetric in (src, neighbor):
            // one precomputed row value answers both directions of the
            // mutual-audibility check. A transmitting neighbor is deaf
            // and holds no lock, so nothing else applies to it.
            if (nbr_rx_mw_[s] >= cs_threshold_mw_) {
                audible = true;
                if (now - transmissions_[static_cast<std::size_t>(ti)].start <=
                    capacity::ofdm_timing::slot_us) {
                    mutual_recent_start = true;
                }
            }
            continue;
        }
        // New interference hits an ongoing reception at the neighbor.
        auto& lock = lock_by_node_[n];
        if (lock) {
            const double interference = std::max(
                external_power_mw(n) - lock->signal_mw, min_positive_mw);
            lock->max_interference_mw =
                std::max(lock->max_interference_mw, interference);
        }
        // Then the neighbor may lock onto this frame.
        if (power_mw < preamble_threshold_mw_) continue;
        const double interference =
            std::max(external_power_mw(n) - power_mw, min_positive_mw);
        const double power_dbm = propagation::mw_to_dbm(power_mw);
        const double sinr_db = power_dbm - propagation::mw_to_dbm(interference);
        if (sinr_db < radio_.preamble_capture_snr_db) continue;
        // The preamble is decodable at this node: the CCA event
        // announces it (carrier-sense hook), and the node locks now if
        // it is free.
        t.decodable.push_back(n);
        if (!lock) lock = reception{index, n, power_mw, interference};
    }
    if (audible) {
        ++counters_.busy_starts;
        if (mutual_recent_start) {
            ++counters_.slot_collisions;
        } else if (cs_said_idle) {
            ++counters_.chain_collisions;
        }
    }
    schedule_cca(src, index);

    sim_.schedule_at(t.end, [this, index] { end_transmission(index); });
}

void medium::end_transmission(std::size_t tx_index) {
    // Copy what callbacks need: listeners may re-enter start_transmission,
    // which can reallocate transmissions_ or reuse this slot.
    const frame ended = transmissions_[tx_index].f;
    const node_id src = transmissions_[tx_index].src;
    tx_slot_by_node_[src] = -1;

    const transmission& t = transmissions_[tx_index];
    const double* row = row_rx_mw(t);
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];
    // One pass: each neighbor drops the frame's power and settles a
    // reception locked to it (only audible neighbors can hold one:
    // locking requires power above the preamble sensitivity, which sits
    // above the audibility floor). PER draws stay in row order.
    // end_transmission only runs from a scheduled event, never nested,
    // so the member scratch is free.
    std::vector<delivery>& deliveries = delivery_scratch_;
    deliveries.clear();
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        ext_mw_[n].sub(row[s - begin]);
        if (--audible_count_[n] == 0) {
            // The audible set emptied: the true sum is exactly zero, so
            // drop any accumulated rounding with it.
            ext_mw_[n].reset();
        }
        auto& lock = lock_by_node_[n];
        if (!lock || lock->tx_index != tx_index) continue;
        const double signal_dbm = propagation::mw_to_dbm(lock->signal_mw);
        const double sinr_db =
            signal_dbm - propagation::mw_to_dbm(lock->max_interference_mw);
        const double per =
            errors_.packet_error_rate(*ended.rate, sinr_db, ended.bytes);
        const bool decoded = rng_.uniform() >= per;
        deliveries.push_back({lock->rx, signal_dbm, sinr_db, decoded});
        lock.reset();
    }
    // No lock refers to the frame any more: its slot is free.
    free_slots_.push_back(tx_index);
    // Interference relief never lowers a min-SINR, so there is no SINR
    // sweep after the removal.
    for (const auto& d : deliveries) {
        listeners_[d.rx]->on_frame_received(ended, d.power_dbm, d.sinr,
                                            d.decoded);
    }
    schedule_cca(src, no_preambles);
    listeners_[src]->on_tx_complete(ended);
}

}  // namespace csense::mac
