#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace csense::sim {

namespace {

/// settle() bound meaning "no bound": larger than any clamped tick.
constexpr std::uint64_t kUnboundedTick = ~std::uint64_t{0};

}  // namespace

const event_queue_config& default_queue_config() noexcept {
    static const event_queue_config config;
    return config;
}

event_queue::event_queue(const event_queue_config& config) {
    reconfigure(config);
}

bool event_queue::reconfigure(const event_queue_config& config) {
    if (pending_ != 0 || heap_size() != 0) return false;
    backend_ = config.backend;
    bucket_width_ = config.bucket_width_us;
    current_tick_ = 0;
    wheel_hint_ = 0;
    if (backend_ == queue_backend::calendar) {
        if (!(bucket_width_ > 0.0)) bucket_width_ = 9.0;
        inv_bucket_width_ = 1.0 / bucket_width_;
        std::uint32_t count = std::max<std::uint32_t>(config.bucket_count, 64);
        count = std::bit_ceil(count);
        bucket_mask_ = count - 1;
        bucket_head_.assign(count, kNil);
        occupied_.assign(count / 64, 0);
    } else {
        inv_bucket_width_ = 0.0;
        bucket_mask_ = 0;
        bucket_head_.clear();
        occupied_.clear();
    }
    return true;
}

std::uint64_t event_queue::tick_of(time_us at) const noexcept {
    if (!(at > 0.0)) return 0;  // negative (and NaN) times order via near_
    // Multiply by the precomputed reciprocal: tick_of runs several
    // times per event and a divide costs ~10x a multiply. Rounding may
    // shift a boundary value by one tick relative to true division -
    // harmless, because pop order only needs tick_of to be monotone in
    // `at` (any monotone bucketing is; the near heap re-sorts by exact
    // time) and deterministic, which a fixed reciprocal is.
    const double quotient = at * inv_bucket_width_;
    // Clamp before the double -> integer cast: 4e18 < 2^62, so the
    // clamped tick still compares correctly against every real tick and
    // current_tick_ + bucket_count cannot overflow.
    constexpr double kMaxTick = 4.0e18;
    if (quotient >= kMaxTick) return static_cast<std::uint64_t>(kMaxTick);
    return static_cast<std::uint64_t>(quotient);
}

void event_queue::place(entry e) {
    // Precondition: e is live (its generation matches its slot), so
    // updating the slot's location tag here is always correct.
    const std::uint64_t tick = tick_of(e.at);
    if (tick <= current_tick_) {
        near_.push_back(e);
        std::push_heap(near_.begin(), near_.end(), std::greater<>{});
        slots_[e.slot].location = entry_loc::near_heap;
        return;
    }
    if (tick - current_tick_ <= bucket_mask_) {
        const auto b = static_cast<std::uint32_t>(tick & bucket_mask_);
        const std::uint32_t head = bucket_head_[b];
        wheel_node_[e.slot] = wheel_node{e.at, e.sequence, head, kNil};
        if (head != kNil) wheel_node_[head].prev = e.slot;
        bucket_head_[b] = e.slot;
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
        slots_[e.slot].location = entry_loc::wheel;
        if (tick < wheel_hint_) wheel_hint_ = tick;
        return;
    }
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
    slots_[e.slot].location = entry_loc::far_heap;
}

event_id event_queue::schedule(time_us at, inline_action action) {
    std::uint32_t index;
    if (!free_slots_.empty()) {
        index = free_slots_.back();
        free_slots_.pop_back();
    } else {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[index].action = std::move(action);
    const std::uint32_t generation = slots_[index].generation;
    const entry e{at, next_sequence_++, index, generation};
    if (backend_ == queue_backend::heap) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    } else {
        // Per-slot wheel storage grows only at the slot high-water mark.
        if (wheel_node_.size() < slots_.size()) {
            wheel_node_.resize(slots_.size());
        }
        place(e);
    }
    ++pending_;
    return make_id(index, generation);
}

void event_queue::release_slot(std::uint32_t index) {
    slots_[index].action.reset();  // release captured state eagerly
    ++slots_[index].generation;
    slots_[index].location = entry_loc::none;
    free_slots_.push_back(index);
}

bool event_queue::cancel(event_id id) {
    const auto index = static_cast<std::uint32_t>(id & 0xffffffffULL);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (index >= slots_.size() || slots_[index].generation != generation ||
        !slots_[index].action) {
        return false;
    }
    if (backend_ == queue_backend::calendar &&
        slots_[index].location == entry_loc::wheel) {
        // In-wheel entries unlink eagerly: O(bucket occupancy), which at
        // slot granularity is a handful of entries, and the wheel stays
        // free of stale entries (its slot storage is reused on the next
        // schedule of the same slot, so lazy dropping is not an option).
        unlink_wheel(index);
        release_slot(index);
        --pending_;
        return true;
    }
    release_slot(index);
    --pending_;
    ++stale_count_;  // its heap entry lingers until dropped or compacted
    maybe_compact();
    return true;
}

void event_queue::unlink_wheel(std::uint32_t index) {
    const wheel_node& node = wheel_node_[index];
    const std::uint32_t prev = node.prev;
    const std::uint32_t next = node.next;
    if (next != kNil) wheel_node_[next].prev = prev;
    if (prev != kNil) {
        wheel_node_[prev].next = next;
    } else {
        const std::uint64_t tick = tick_of(node.at);
        const auto b = static_cast<std::uint32_t>(tick & bucket_mask_);
        bucket_head_[b] = next;
        if (next == kNil) {
            occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        }
    }
    --wheel_count_;
}

bool event_queue::advance_wheel(std::uint64_t limit_tick) {
    // Nothing occupied at or before the limit: reject without scanning.
    if (wheel_hint_ > limit_tick) return false;
    // Find the first occupied bucket in circular order after the
    // current one (which is empty by the wheel invariant), 64 buckets
    // per bitmap word.
    const auto cur_pos = static_cast<std::uint32_t>(current_tick_ & bucket_mask_);
    const std::uint32_t start = (cur_pos + 1) & bucket_mask_;
    const auto words = static_cast<std::uint32_t>(occupied_.size());
    std::uint32_t found;
    const std::uint32_t start_word = start >> 6;
    const std::uint64_t first =
        occupied_[start_word] >> (start & 63);
    if (first != 0) {
        found = start + static_cast<std::uint32_t>(std::countr_zero(first));
    } else {
        found = 0;
        for (std::uint32_t step = 1;; ++step) {
            const std::uint32_t w = (start_word + step) & (words - 1);
            if (occupied_[w] != 0) {
                found = (w << 6) +
                        static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
                break;
            }
        }
    }
    // All entries in the found bucket share one tick; recover it from
    // the circular distance.
    const std::uint32_t delta = (found - cur_pos) & bucket_mask_;
    if (current_tick_ + delta > limit_tick) {
        // The scan found the exact earliest occupied tick; remember it
        // so repeated bounded pops before that event skip the scan.
        wheel_hint_ = current_tick_ + delta;
        return false;
    }
    current_tick_ += delta;
    wheel_hint_ = current_tick_;  // drained below; next minimum unknown
    std::uint32_t s = bucket_head_[found];
    std::size_t drained = 0;
    while (s != kNil) {
        const wheel_node& node = wheel_node_[s];
        // In-wheel entries are never stale (cancel unlinks eagerly), so
        // the slot's current generation is the entry's.
        near_.push_back(entry{node.at, node.sequence, s, slots_[s].generation});
        std::push_heap(near_.begin(), near_.end(), std::greater<>{});
        slots_[s].location = entry_loc::near_heap;
        ++drained;
        s = node.next;
    }
    bucket_head_[found] = kNil;
    wheel_count_ -= drained;
    occupied_[found >> 6] &= ~(std::uint64_t{1} << (found & 63));
    return true;
}

void event_queue::rebase(std::uint64_t tick) {
    current_tick_ = tick;
    wheel_hint_ = tick;
    rebase_scratch_.swap(far_);  // far_ becomes the (empty) scratch
    for (const entry& e : rebase_scratch_) {
        // Stale entries must be dropped here, not re-placed: their slot
        // may already carry a newer event, and place() would clobber its
        // wheel storage and location tag.
        if (stale(e)) {
            --stale_count_;
            continue;
        }
        place(e);
    }
    rebase_scratch_.clear();
}

void event_queue::settle(std::uint64_t limit_tick) {
    for (;;) {
        // Pull overflow entries the advancing horizon has reached. Every
        // far_ entry is later than every wheel entry (tick >= current +
        // buckets > any wheel tick), so migrating before the wheel
        // drains preserves pop order; skipping this would strand an
        // overflow event once current_tick_ moves past it.
        const std::uint64_t horizon = current_tick_ + bucket_mask_ + 1;
        while (!far_.empty()) {
            if (stale(far_.front())) {
                std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
                far_.pop_back();
                --stale_count_;
                continue;
            }
            if (tick_of(far_.front().at) >= horizon) break;
            const entry e = far_.front();
            std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
            far_.pop_back();
            place(e);
        }
        while (!near_.empty() && stale(near_.front())) {
            std::pop_heap(near_.begin(), near_.end(), std::greater<>{});
            near_.pop_back();
            --stale_count_;
        }
        if (!near_.empty()) return;
        if (wheel_count_ > 0) {
            if (!advance_wheel(limit_tick)) return;
            continue;
        }
        if (far_.empty()) return;  // queue is empty (pending_ == 0)
        const std::uint64_t target = tick_of(far_.front().at);
        // far_ is a min-heap, so if its top lies beyond the limit every
        // overflow entry does (tick_of is monotone): nothing to do.
        if (target > limit_tick) return;
        rebase(target);
    }
}

void event_queue::drop_cancelled() {
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        --stale_count_;
    }
}

void event_queue::maybe_compact() {
    // Compact only when stale entries dominate: O(n) rebuild amortizes to
    // O(1) per cancellation, and the threshold keeps small queues as-is.
    if (stale_count_ < 64 || stale_count_ * 2 < heap_size()) return;
    const auto is_stale = [this](const entry& e) { return stale(e); };
    if (backend_ == queue_backend::heap) {
        std::erase_if(heap_, is_stale);
        std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    } else {
        // The wheel never holds stale entries (cancel unlinks eagerly),
        // so only the two heaps need sweeping.
        std::erase_if(near_, is_stale);
        std::make_heap(near_.begin(), near_.end(), std::greater<>{});
        std::erase_if(far_, is_stale);
        std::make_heap(far_.begin(), far_.end(), std::greater<>{});
    }
    stale_count_ = 0;
}

time_us event_queue::next_time() const {
    auto* self = const_cast<event_queue*>(this);
    if (backend_ == queue_backend::heap) {
        self->drop_cancelled();
        if (heap_.empty()) {
            throw std::logic_error("event_queue::next_time: empty");
        }
        return heap_.front().at;
    }
    self->settle(kUnboundedTick);
    if (near_.empty()) throw std::logic_error("event_queue::next_time: empty");
    return near_.front().at;
}

time_us event_queue::run_next() {
    auto [at, action] = pop_next();
    action();
    return at;
}

std::pair<time_us, inline_action> event_queue::pop_next() {
    auto next = pop_next_at_most(std::numeric_limits<time_us>::infinity());
    if (!next) throw std::logic_error("event_queue::pop_next: empty");
    return std::move(*next);
}

std::optional<std::pair<time_us, inline_action>> event_queue::pop_next_at_most(
    time_us until) {
    if (backend_ == queue_backend::heap) {
        drop_cancelled();
        if (heap_.empty() || heap_.front().at > until) return std::nullopt;
        const entry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        std::optional<std::pair<time_us, inline_action>> out;
        out.emplace(top.at, std::move(slots_[top.slot].action));
        release_slot(top.slot);
        --pending_;
        return out;
    }
    settle(tick_of(until));
    if (near_.empty() || near_.front().at > until) return std::nullopt;
    const entry top = near_.front();
    std::pop_heap(near_.begin(), near_.end(), std::greater<>{});
    near_.pop_back();
    // Emplace straight into the optional: one inline_action move per
    // pop instead of two (the pair would otherwise be moved again).
    std::optional<std::pair<time_us, inline_action>> out;
    out.emplace(top.at, std::move(slots_[top.slot].action));
    release_slot(top.slot);
    --pending_;
    return out;
}

}  // namespace csense::sim
