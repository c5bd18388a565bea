#include "src/mac/medium.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/propagation/units.hpp"

namespace csense::mac {

namespace {
constexpr double very_weak_gain_db = -500.0;
/// Positive floor for interference computed by subtraction, so mw_to_dbm
/// never sees a non-positive argument even if compensated rounding dips
/// below zero.
constexpr double min_positive_mw = 1e-300;
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
    tx_flag_by_node_.reserve(nodes);
    active_tx_by_node_.reserve(nodes);
    ext_mw_.reserve(nodes);
    audible_count_.reserve(nodes);
    sparse_gains_.reserve(nodes * 8);
}

node_id medium::add_node(medium_listener& listener) {
    if (frozen_ || !transmissions_.empty()) {
        throw std::logic_error("medium::add_node: topology is frozen once "
                               "transmissions begin");
    }
    const auto id = static_cast<node_id>(listeners_.size());
    listeners_.push_back(&listener);
    lock_by_node_.emplace_back();
    tx_flag_by_node_.push_back(0);
    active_tx_by_node_.push_back(-1);
    ext_mw_.emplace_back();
    audible_count_.push_back(0);
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
    if (frozen_) {
        throw std::logic_error(
            "medium::set_link_gain_db: neighbor lists are frozen once "
            "transmissions begin");
    }
    sparse_gains_[link_key(a, b)] = gain_db;
}

double medium::link_gain_db(node_id a, node_id b) const {
    const std::size_t n = listeners_.size();
    if (a >= n || b >= n || a == b) {
        throw std::invalid_argument("medium::link_gain_db: bad link");
    }
    const auto it = sparse_gains_.find(link_key(a, b));
    return it != sparse_gains_.end() ? it->second : very_weak_gain_db;
}

double medium::rx_power_dbm(node_id tx, node_id rx) const {
    return radio_.tx_power_dbm + link_gain_db(tx, rx);
}

bool medium::transmitting(node_id n) const {
    check_node(n, "medium::transmitting");
    return tx_flag_by_node_[n] != 0;
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
    // csense-lint: allow(unordered-iteration) -- pure degree counting:
    // each link bumps two integer counters, so the fold is order-free.
    for (const auto& [key, gain] : sparse_gains_) {
        if (!audible(gain)) continue;
        const auto a = static_cast<std::size_t>(key >> 32);
        const auto b = static_cast<std::size_t>(key & 0xffffffffULL);
        ++nbr_offset_[a + 1];
        ++nbr_offset_[b + 1];
    }
    std::partial_sum(nbr_offset_.begin(), nbr_offset_.end(),
                     nbr_offset_.begin());
    nbr_id_.resize(nbr_offset_[n]);
    nbr_rx_mw_.resize(nbr_offset_[n]);
    std::vector<std::uint32_t> cursor(nbr_offset_.begin(),
                                      nbr_offset_.end() - 1);
    // csense-lint: allow(unordered-iteration) -- CSR fill in hash order
    // is safe because every row is re-sorted by neighbor id below, so
    // the frozen lists are a function of the topology alone.
    for (const auto& [key, gain] : sparse_gains_) {
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
    // Sort each row by neighbor id (the map iterates in hash order) so
    // fan-out order - and with it fading draws and delivery callbacks -
    // is a function of the topology alone.
    std::vector<std::pair<node_id, double>> row;
    for (std::size_t v = 0; v < n; ++v) {
        const std::size_t begin = nbr_offset_[v];
        const std::size_t end = nbr_offset_[v + 1];
        row.clear();
        for (std::size_t s = begin; s < end; ++s) {
            row.emplace_back(nbr_id_[s], nbr_rx_mw_[s]);
        }
        std::sort(row.begin(), row.end());
        for (std::size_t s = begin; s < end; ++s) {
            nbr_id_[s] = row[s - begin].first;
            nbr_rx_mw_[s] = row[s - begin].second;
        }
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

void medium::notify_neighbors_after_cca(node_id src) {
    // Clear-channel assessment takes time: nodes learn about a power
    // change cca_delay_us after it happens, and see the power as it is
    // *then*. The stale window is what permits slot collisions. Only
    // the audible neighbors of the changed transmitter saw any power
    // move, so only they are notified; the transmitter's own external
    // power did not change, so it is not notified either.
    sim_.schedule_in(radio_.cca_delay_us, [this, src] {
        const std::size_t begin = nbr_offset_[src];
        const std::size_t end = nbr_offset_[src + 1];
        for (std::size_t s = begin; s < end; ++s) {
            const node_id n = nbr_id_[s];
            listeners_[n]->on_channel_update(
                propagation::mw_to_dbm(external_power_mw(n)));
        }
    });
}

void medium::refresh_power_sums() {
    // Exact rebuild of every incremental sum from the active set, so the
    // compensated accounting can never drift over long runs. Keyed to
    // event counts by the caller - deterministic, never wall clock.
    for (std::size_t n = 0; n < ext_mw_.size(); ++n) {
        ext_mw_[n].reset();
        audible_count_[n] = 0;
    }
    for (const std::size_t i : active_tx_) {
        const auto& t = transmissions_[i];
        const double* row = row_rx_mw(t);
        const std::size_t begin = nbr_offset_[t.src];
        const std::size_t end = nbr_offset_[t.src + 1];
        for (std::size_t s = begin; s < end; ++s) {
            ext_mw_[nbr_id_[s]].add(row[s - begin]);
            ++audible_count_[nbr_id_[s]];
        }
    }
}

void medium::start_transmission(node_id src, const frame& f,
                                bool cs_said_idle) {
    check_node(src, "medium::start_transmission");
    if (tx_flag_by_node_[src] != 0) {
        throw std::logic_error("medium::start_transmission: already on air");
    }
    if (!frozen_) freeze_topology();
    ++counters_.transmissions;
    const sim::time_us now = sim_.now();
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];
    // Pathology accounting: did this start overlap an audible frame?
    bool audible = false;
    bool mutual_recent_start = false;
    for (std::size_t s = begin; s < end; ++s) {
        const std::int64_t ti = active_tx_by_node_[nbr_id_[s]];
        if (ti < 0) continue;
        // Unfaded sensed power, symmetric in (src, neighbor): one
        // precomputed row value answers both directions of the
        // mutual-audibility check.
        if (nbr_rx_mw_[s] >= cs_threshold_mw_) {
            audible = true;
            if (now - transmissions_[static_cast<std::size_t>(ti)].start <=
                capacity::ofdm_timing::slot_us) {
                mutual_recent_start = true;
            }
        }
    }
    if (audible) {
        ++counters_.busy_starts;
        if (mutual_recent_start) {
            ++counters_.slot_collisions;
        } else if (cs_said_idle) {
            ++counters_.chain_collisions;
        }
    }

    // A transmitter abandons any reception in progress.
    if (lock_by_node_[src] && lock_by_node_[src]->active) {
        lock_by_node_[src]->active = false;
        lock_by_node_[src].reset();
    }

    transmission t;
    t.f = f;
    t.src = src;
    t.start = now;
    t.end = now + f.airtime_us();
    t.active = true;
    if (radio_.fading_sigma_db > 0.0) {
        // Fade draws only for the audible neighbors, in row (node-id)
        // order, folded straight into the precomputed rx power.
        t.rx_mw.resize(end - begin);
        for (std::size_t s = begin; s < end; ++s) {
            const double fade_db = radio_.fading_sigma_db * rng_.normal();
            t.rx_mw[s - begin] =
                nbr_rx_mw_[s] * propagation::db_to_linear(fade_db);
        }
    }
    transmissions_.push_back(std::move(t));
    const std::size_t index = transmissions_.size() - 1;
    active_tx_.push_back(index);
    tx_flag_by_node_[src] = 1;
    active_tx_by_node_[src] = static_cast<std::int64_t>(index);
    ++active_count_;

    const transmission& added = transmissions_[index];
    const double* row = row_rx_mw(added);
    // Incremental power accounting: this frame's rx power joins each
    // neighbor's running external sum.
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        ext_mw_[n].add(row[s - begin]);
        ++audible_count_[n];
    }
    // New interference hits ongoing receptions at the neighbors.
    for (std::size_t s = begin; s < end; ++s) {
        auto& lock = lock_by_node_[nbr_id_[s]];
        if (!lock || !lock->active) continue;
        const double interference = std::max(
            external_power_mw(lock->rx) - lock->signal_mw, min_positive_mw);
        const double sinr_db = propagation::mw_to_dbm(lock->signal_mw) -
                               propagation::mw_to_dbm(interference);
        lock->min_sinr_db = std::min(lock->min_sinr_db, sinr_db);
    }
    // Then candidate neighbors may lock onto this frame.
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        if (tx_flag_by_node_[n] != 0) continue;  // deaf while transmitting
        const double power_mw = row[s - begin];
        if (power_mw < preamble_threshold_mw_) continue;
        const double interference =
            std::max(external_power_mw(n) - power_mw, min_positive_mw);
        const double power_dbm = propagation::mw_to_dbm(power_mw);
        const double sinr_db = power_dbm - propagation::mw_to_dbm(interference);
        if (sinr_db < radio_.preamble_capture_snr_db) continue;
        // The preamble is decodable at this node: announce it (carrier
        // sense hook) after the CCA lag, and lock if the receiver is free.
        medium_listener* listener = listeners_[n];
        const frame announced = added.f;
        const sim::time_us until = added.end;
        sim_.schedule_in(radio_.cca_delay_us,
                         [listener, announced, power_dbm, until] {
                             listener->on_preamble(announced, power_dbm, until);
                         });
        if (!lock_by_node_[n]) {
            lock_by_node_[n] = reception{index, n, power_mw, sinr_db, true};
        }
    }
    notify_neighbors_after_cca(src);

    sim_.schedule_at(added.end, [this, index] { end_transmission(index); });
}

void medium::maybe_compact_log() {
    // Compact the log occasionally so long runs stay O(active).
    if (transmissions_.size() > 4096 && active_count_ == 0) {
        bool any_locked = false;
        for (const auto& lock : lock_by_node_) {
            if (lock) any_locked = true;
        }
        if (!any_locked) {
            transmissions_.clear();
            active_tx_.clear();
        }
    }
}

void medium::end_transmission(std::size_t tx_index) {
    // Copy what callbacks need: listeners may re-enter start_transmission,
    // which can reallocate transmissions_.
    const frame ended = transmissions_[tx_index].f;
    const node_id src = transmissions_[tx_index].src;
    transmissions_[tx_index].active = false;
    tx_flag_by_node_[src] = 0;
    active_tx_by_node_[src] = -1;
    --active_count_;
    // Swap-erase: active order only feeds the exact refresh, whose
    // association is deterministic either way.
    const auto it = std::find(active_tx_.begin(), active_tx_.end(), tx_index);
    *it = active_tx_.back();
    active_tx_.pop_back();

    const transmission& t = transmissions_[tx_index];
    const double* row = row_rx_mw(t);
    const std::size_t begin = nbr_offset_[src];
    const std::size_t end = nbr_offset_[src + 1];
    for (std::size_t s = begin; s < end; ++s) {
        const node_id n = nbr_id_[s];
        ext_mw_[n].sub(row[s - begin]);
        if (--audible_count_[n] == 0) {
            // The audible set emptied: the true sum is exactly zero, so
            // drop any accumulated rounding with it.
            ext_mw_[n].reset();
        }
    }
    // Settle receptions locked to this frame: only audible neighbors can
    // hold one (locking requires power above the preamble sensitivity,
    // which sits above the audibility floor). end_transmission only runs
    // from a scheduled event, never nested, so the member scratch is free.
    std::vector<delivery>& deliveries = delivery_scratch_;
    deliveries.clear();
    for (std::size_t s = begin; s < end; ++s) {
        auto& lock = lock_by_node_[nbr_id_[s]];
        if (!lock || !lock->active || lock->tx_index != tx_index) continue;
        lock->active = false;
        const double per = errors_.packet_error_rate(
            *ended.rate, lock->min_sinr_db, ended.bytes);
        const bool decoded = rng_.uniform() >= per;
        deliveries.push_back({lock->rx, propagation::mw_to_dbm(lock->signal_mw),
                              lock->min_sinr_db, decoded});
        lock.reset();
    }
    // Interference relief never lowers a min-SINR, so there is no SINR
    // sweep after the removal.
    if (radio_.power_refresh_interval > 0 &&
        ++ends_since_refresh_ >= radio_.power_refresh_interval) {
        refresh_power_sums();
        ends_since_refresh_ = 0;
    }
    for (const auto& d : deliveries) {
        listeners_[d.rx]->on_frame_received(ended, d.power_dbm, d.sinr,
                                            d.decoded);
    }
    notify_neighbors_after_cca(src);
    listeners_[src]->on_tx_complete(ended);
    maybe_compact_log();
}

}  // namespace csense::mac
