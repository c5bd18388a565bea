// Discrete-event queue with deterministic ordering: events at equal
// timestamps fire in insertion order (a strict requirement for
// reproducible MAC simulations, where DIFS expiry and slot boundaries
// coincide constantly).
//
// Memory is bounded by the number of *concurrently pending* events, not
// the number ever scheduled: executed and cancelled events return their
// slot to a free list, and each slot carries a generation counter so a
// stale id can never cancel the slot's next occupant. Cancelled entries
// left inside the queue are dropped lazily when they surface, and the
// whole structure is compacted when stale entries outnumber live ones
// (the MAC's cancel-heavy timer pattern would otherwise accumulate
// them).
//
// Two backends share this contract and produce identical pop order:
//
//  - calendar: a timer wheel bucketed at MAC slot granularity with a
//    near-past heap and a beyond-horizon overflow heap. Arming and
//    cancelling are O(1) instead of the binary heap's O(log n) sift /
//    lazy-cancel churn, which is the win when thousands of nodes hold
//    standing backoff timers (the camp05 dense regime). Wheel buckets
//    are intrusive doubly-linked lists threaded through a dense
//    per-slot side array (a slot holds at most one pending event), so
//    the wheel performs zero heap allocations once the slot table
//    reaches its high-water mark and cancelling an in-wheel event
//    unlinks it eagerly in O(1) instead of leaving a stale entry
//    behind.
//  - heap: the original single binary heap, kept as the reference
//    implementation for differential tests and because it is the
//    faster structure when only a handful of events are pending (small
//    simulations; mac::network picks per scale at first run).
//
// Equivalence argument (why the calendar pops in exactly (time,
// sequence) order): tick(at) = floor(at / width) is monotone in `at`,
// so an entry with a strictly smaller tick is strictly earlier. The
// wheel only holds entries with tick in (current, current + buckets) -
// one tick per bucket - while the near heap holds tick <= current and
// the overflow heap tick >= current + buckets. The near heap is a full
// (time, sequence) min-heap, and entries only ever migrate overflow ->
// wheel -> near as the current tick advances, so the near heap's top is
// always the global minimum. Entries with equal times share a tick and
// therefore meet in the near heap, where insertion order breaks the
// tie. The randomized differential test in
// tests/test_event_queue_backends.cpp checks this end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/inline_action.hpp"

namespace csense::sim {

/// Simulation time in microseconds. Double precision keeps sub-slot
/// resolution over multi-minute runs (2^53 us ~ 285 years).
using time_us = double;

/// Handle used to cancel a scheduled event: slot index in the low 32
/// bits, the slot's generation at schedule time in the high 32 bits.
using event_id = std::uint64_t;

/// Scheduler backend selection. Both orders pops identically; the
/// calendar wheel is the fast default, the binary heap the reference.
enum class queue_backend { calendar, heap };

/// Tuning knobs for the calendar backend (ignored by the heap).
struct event_queue_config {
    queue_backend backend = queue_backend::calendar;
    /// Wheel bucket width. Defaults to the 802.11a/g slot time: MAC
    /// timers land on slot boundaries, so one bucket rarely holds more
    /// than a handful of events.
    time_us bucket_width_us = 9.0;
    /// Wheel size (power of two). 4096 slots x 9 us ~ 37 ms of horizon
    /// covers every MAC timer; only long timeouts and idle-source
    /// arrivals overflow.
    std::uint32_t bucket_count = 4096;
};

/// The process-default queue configuration: calendar backend. Both
/// backends produce byte-identical simulations; scale-aware callers
/// (mac::network) pick one per queue through event_queue_config.
const event_queue_config& default_queue_config() noexcept;

/// Deterministically ordered event queue with slot-recycling storage
/// for the scheduled actions.
class event_queue {
public:
    event_queue() : event_queue(default_queue_config()) {}
    explicit event_queue(const event_queue_config& config);

    /// Switch backend/tuning before any event is scheduled (or after
    /// every scheduled event has fired or been cancelled *and* been
    /// swept out). Returns false - leaving the queue untouched - if
    /// entries are still held anywhere. Lets owners that only learn
    /// their scale after construction (a network learns its node count
    /// as nodes are added) pick the backend at first run.
    bool reconfigure(const event_queue_config& config);

    /// Schedule `action` at absolute time `at`; returns a cancellable id.
    event_id schedule(time_us at, inline_action action);

    /// Cancel a pending event; returns false if already fired/cancelled.
    /// Safe against stale ids: once an event fires or is cancelled its
    /// slot may be reused, and the old id can never affect the new event.
    bool cancel(event_id id);

    /// True when no pending events remain.
    bool empty() const noexcept { return pending_ == 0; }

    /// Number of pending (uncancelled) events.
    std::size_t size() const noexcept { return pending_; }

    /// Time of the earliest pending event; requires !empty().
    time_us next_time() const;

    /// Pop and run the earliest event; returns its time. Requires !empty().
    /// Note: the action runs with no notion of "now"; simulation kernels
    /// should use pop_next() and advance their clock before invoking.
    time_us run_next();

    /// Pop the earliest event without running it; returns its time and
    /// action so the caller can advance its clock first. Requires !empty().
    std::pair<time_us, inline_action> pop_next();

    /// Pop the earliest event only if it is scheduled at or before
    /// `until`; std::nullopt when the queue is empty or the next event
    /// lies beyond the horizon. One fused settle + pop per event instead
    /// of the next_time() + pop_next() pair - the simulation kernel's
    /// run_until loop executes hundreds of millions of events in a
    /// dense-network campaign, so the duplicate stale-drop scan is worth
    /// eliding.
    std::optional<std::pair<time_us, inline_action>> pop_next_at_most(
        time_us until);

    /// Size of the internal slot table: the high-water mark of
    /// *concurrently* pending events, independent of how many events were
    /// ever scheduled (the bounded-memory guarantee regression tests pin).
    std::size_t slot_count() const noexcept { return slots_.size(); }

    /// Entries currently held across all internal structures, including
    /// cancelled-but-not-yet dropped ones; compaction keeps this
    /// O(pending).
    std::size_t heap_size() const noexcept {
        return near_.size() + wheel_count_ + far_.size() + heap_.size();
    }

    /// The backend this queue was constructed with.
    queue_backend backend() const noexcept { return backend_; }

private:
    struct entry {
        time_us at;
        std::uint64_t sequence;
        std::uint32_t slot;
        std::uint32_t generation;

        bool operator>(const entry& other) const noexcept {
            if (at != other.at) return at > other.at;
            return sequence > other.sequence;
        }
    };

    /// Which internal structure currently holds a slot's pending entry.
    /// Lets cancel() unlink in-wheel entries eagerly; entries in the
    /// heaps are cancelled lazily (heap removal would be O(n)).
    enum class entry_loc : std::uint8_t { none, near_heap, wheel, far_heap };

    struct slot {
        inline_action action;
        /// Incremented whenever the slot is released (fired or
        /// cancelled); an entry or id bearing an older generation is
        /// stale. Wraps after 2^32 reuses of one slot, which a simulation
        /// would take centuries of virtual time to reach.
        std::uint32_t generation = 0;
        entry_loc location = entry_loc::none;  ///< calendar backend only
    };

    /// Wheel residency of one slot (calendar backend): the entry payload
    /// minus what the slot table already holds (slot index is the array
    /// index, generation is current - in-wheel entries are never stale),
    /// plus doubly-linked intrusive bucket-list links so cancel unlinks
    /// in O(1). Kept in a dense 24-byte side array rather than inside
    /// the 128-byte slot struct: link/unlink touch *neighbouring* slots'
    /// nodes, and with thousands of pending timers (the camp05 regime)
    /// those foreign touches must land in a compact, cache-resident
    /// array instead of dragging in a full slot line each.
    struct wheel_node {
        time_us at;
        std::uint64_t sequence;
        std::uint32_t next;
        std::uint32_t prev;
    };

    static event_id make_id(std::uint32_t index,
                            std::uint32_t generation) noexcept {
        return (static_cast<event_id>(generation) << 32) | index;
    }

    bool stale(const entry& e) const noexcept {
        return slots_[e.slot].generation != e.generation;
    }

    /// Map a timestamp to its wheel tick; clamped to [0, kMaxTick] so
    /// negative and astronomically large times stay well-defined (they
    /// sort correctly via the heaps regardless).
    std::uint64_t tick_of(time_us at) const noexcept;

    /// Route a fresh entry to the near heap / wheel / overflow heap.
    void place(entry e);

    /// Return a slot to the free list and invalidate outstanding ids.
    void release_slot(std::uint32_t index);

    /// Establish: near_ top is the earliest live pending entry with
    /// tick <= limit_tick, or no such entry exists. Advances the wheel /
    /// rebases the overflow heap only through buckets at or before
    /// limit_tick - a bounded pop (run_until's horizon) must not drag
    /// current_tick_ to some far-future event, or every later schedule
    /// would land behind the wheel in the near heap and the structure
    /// degenerates into a plain binary heap. Never changes the
    /// observable pop order.
    void settle(std::uint64_t limit_tick);

    /// Drain the first occupied wheel bucket into the near heap and
    /// advance current_tick_ to its tick, unless that tick exceeds
    /// limit_tick (returns false, state untouched). Requires
    /// wheel_count_ > 0.
    bool advance_wheel(std::uint64_t limit_tick);

    /// Remove the slot's entry from its wheel bucket (cancel path).
    /// Requires slots_[index].location == entry_loc::wheel.
    void unlink_wheel(std::uint32_t index);

    /// Re-anchor the wheel at `tick` and re-place every overflow entry.
    void rebase(std::uint64_t tick);

    /// Heap backend: pop stale entries off the heap top.
    void drop_cancelled();

    /// Rebuild all structures without stale entries once they dominate.
    void maybe_compact();

    queue_backend backend_ = queue_backend::calendar;
    time_us bucket_width_ = 9.0;
    time_us inv_bucket_width_ = 0.0;  ///< 1 / bucket_width_ (tick_of)
    std::uint32_t bucket_mask_ = 0;  ///< bucket_count - 1 (power of two)

    // --- calendar backend state ---
    static constexpr std::uint32_t kNil = 0xffffffffu;  ///< list sentinel

    /// Entries with tick <= current_tick_: a (time, sequence) min-heap.
    /// The pop path only ever pops from here.
    std::vector<entry> near_;
    /// Wheel: bucket_head_[t & bucket_mask_] heads an intrusive list of
    /// exactly the entries of one tick t in (current_tick_,
    /// current_tick_ + bucket_count). List links and entry payloads live
    /// in wheel_node_, indexed by slot - a slot has at most one pending
    /// event, so this storage tracks the slot table's high-water mark
    /// and the wheel never allocates per insert.
    std::vector<std::uint32_t> bucket_head_;
    std::vector<wheel_node> wheel_node_;  ///< indexed by slot
    /// One bit per bucket: non-empty. Scanned 64 buckets at a step.
    std::vector<std::uint64_t> occupied_;
    /// Entries with tick >= current_tick_ + bucket_count, min-heap.
    std::vector<entry> far_;
    /// Reused by rebase() so re-anchoring allocates nothing in steady
    /// state.
    std::vector<entry> rebase_scratch_;
    std::uint64_t current_tick_ = 0;
    /// Lower bound on the tick of the earliest occupied wheel bucket:
    /// no bucket with tick in (current_tick_, wheel_hint_) is occupied.
    /// Lets a bounded advance_wheel() reject horizons before the next
    /// event in O(1) instead of re-scanning the occupancy bitmap on
    /// every run_until() that ends between events.
    std::uint64_t wheel_hint_ = 0;
    std::size_t wheel_count_ = 0;

    // --- heap backend state ---
    std::vector<entry> heap_;  ///< std::push_heap/pop_heap, min at front

    std::vector<slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_sequence_ = 0;
    std::size_t pending_ = 0;
    std::size_t stale_count_ = 0;
};

}  // namespace csense::sim
