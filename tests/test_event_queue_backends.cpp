// Calendar-queue edge cases and its differential contract: for any
// schedule/cancel/pop stream, sim::event_queue must pop in exactly the
// (time, insertion-sequence) order of a plain binary heap. The heap
// lives here as the reference; production runs on the calendar only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace csense;

/// Reference scheduler: a (time, sequence) min-heap with slot-recycling
/// storage and generation-checked cancel, mirroring event_queue's id
/// layout (slot index low, generation high) so both hand out the same
/// ids for the same stream. Cancelled entries stay in the heap and are
/// skipped when they surface; the tests are too short to need
/// compaction.
class reference_queue {
public:
    using action = std::function<void()>;

    sim::event_id schedule(sim::time_us at, action fn) {
        std::uint32_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
        } else {
            index = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[index].fn = std::move(fn);
        const std::uint32_t generation = slots_[index].generation;
        heap_.push_back(entry{at, next_sequence_++, index, generation});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        ++pending_;
        return (static_cast<sim::event_id>(generation) << 32) | index;
    }

    bool cancel(sim::event_id id) {
        const auto index = static_cast<std::uint32_t>(id & 0xffffffffULL);
        const auto generation = static_cast<std::uint32_t>(id >> 32);
        if (index >= slots_.size() || slots_[index].generation != generation ||
            !slots_[index].fn) {
            return false;
        }
        release(index);
        --pending_;
        return true;
    }

    bool empty() const noexcept { return pending_ == 0; }
    std::size_t size() const noexcept { return pending_; }

    sim::time_us next_time() {
        drop_stale();
        return heap_.front().at;
    }

    std::optional<std::pair<sim::time_us, action>> pop_next_at_most(
        sim::time_us until) {
        drop_stale();
        if (heap_.empty() || heap_.front().at > until) return std::nullopt;
        const entry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        std::pair<sim::time_us, action> out{top.at,
                                            std::move(slots_[top.slot].fn)};
        release(top.slot);
        --pending_;
        return out;
    }

    std::pair<sim::time_us, action> pop_next() {
        return *pop_next_at_most(std::numeric_limits<sim::time_us>::infinity());
    }

private:
    struct entry {
        sim::time_us at;
        std::uint64_t sequence;
        std::uint32_t slot;
        std::uint32_t generation;

        bool operator>(const entry& other) const noexcept {
            if (at != other.at) return at > other.at;
            return sequence > other.sequence;
        }
    };
    struct slot {
        action fn;
        std::uint32_t generation = 0;
    };

    void release(std::uint32_t index) {
        slots_[index].fn = nullptr;
        ++slots_[index].generation;
        free_.push_back(index);
    }

    void drop_stale() {
        while (!heap_.empty() &&
               slots_[heap_.front().slot].generation !=
                   heap_.front().generation) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
        }
    }

    std::vector<entry> heap_;
    std::vector<slot> slots_;
    std::vector<std::uint32_t> free_;
    std::uint64_t next_sequence_ = 0;
    std::size_t pending_ = 0;
};

// Wheel horizon: 4096 buckets x 9 us.
constexpr double kHorizonUs = 4096 * 9.0;

TEST(CalendarQueue, FarFutureEventFiresOnTimeWhileWheelStaysBusy) {
    // Regression: an overflow (beyond-horizon) event must migrate into
    // the wheel as the horizon advances, even though the wheel never
    // drains. A driver event rescheduling itself every 7 us keeps the
    // wheel occupied from t=0 to well past the far event's time.
    sim::event_queue q;
    std::vector<double> fired;
    const double far_at = kHorizonUs + 13000.0;
    q.schedule(far_at, [&fired, far_at] { fired.push_back(far_at); });

    struct driver {
        sim::event_queue* q;
        std::vector<double>* fired;
        double at;
        void operator()() const {
            fired->push_back(at);
            if (at < kHorizonUs + 26000.0) {
                driver next{q, fired, at + 7.0};
                q->schedule(next.at, next);
            }
        }
    };
    q.schedule(7.0, driver{&q, &fired, 7.0});

    while (!q.empty()) q.run_next();
    ASSERT_FALSE(fired.empty());
    // Pop times must be globally nondecreasing - the far event fired in
    // place, not late.
    for (std::size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1], fired[i]) << "out of order at " << i;
    }
    ASSERT_NE(std::find(fired.begin(), fired.end(), far_at), fired.end());
}

TEST(CalendarQueue, SameTickBurstPopsInInsertionOrder) {
    sim::event_queue q;
    std::vector<int> order;
    // 100 events at one timestamp (same tick), interleaved with events
    // in the neighboring buckets on both sides of the tick boundary.
    const double t = 9.0 * 1000.0;  // exactly on a bucket boundary
    for (int i = 0; i < 100; ++i) {
        q.schedule(t, [&order, i] { order.push_back(i); });
    }
    q.schedule(t - 0.5, [&order] { order.push_back(-1); });  // previous tick
    q.schedule(t + 9.0, [&order] { order.push_back(1000); });  // next tick
    q.schedule(std::nextafter(t, 0.0), [&order] { order.push_back(-2); });
    while (!q.empty()) q.run_next();
    ASSERT_EQ(order.size(), 103u);
    EXPECT_EQ(order[0], -1);  // earlier times first...
    EXPECT_EQ(order[1], -2);  // ...in time order, not insertion order
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 2], i);
    }
    EXPECT_EQ(order.back(), 1000);
}

TEST(CalendarQueue, CancelThenReuseKeepsStaleIdsInert) {
    sim::event_queue q;
    int fired = 0;
    const auto first = q.schedule(50.0, [&fired] { ++fired; });
    ASSERT_TRUE(q.cancel(first));
    EXPECT_FALSE(q.cancel(first));  // double-cancel is a no-op
    // The slot is recycled for a new event; the stale id must not be
    // able to cancel it, and the new event must still fire.
    const auto second = q.schedule(60.0, [&fired] { fired += 10; });
    EXPECT_EQ(second & 0xffffffffULL, first & 0xffffffffULL);  // same slot
    EXPECT_FALSE(q.cancel(first));
    while (!q.empty()) q.run_next();
    EXPECT_EQ(fired, 10);
}

TEST(CalendarQueue, CancelHeavyOverflowStaysCompacted) {
    // The MAC's timer pattern - schedule far ahead, cancel, reschedule -
    // entirely beyond the wheel horizon: cancelled overflow-heap entries
    // never surface at the top, so only compaction bounds the heap.
    sim::event_queue q;
    int fired = 0;
    q.schedule(1e12, [&fired] { ++fired; });
    for (int i = 0; i < 200000; ++i) {
        const auto id = q.schedule(1e9 + i, [] {});
        ASSERT_TRUE(q.cancel(id));
    }
    EXPECT_LE(q.slot_count(), 4u);
    EXPECT_LE(q.heap_size(), 256u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.next_time(), 1e12);
}

TEST(CalendarQueue, NegativeAndHugeTimesStayOrdered) {
    sim::event_queue q;
    std::vector<double> fired;
    const auto record = [&fired, &q](double at) {
        q.schedule(at, [&fired, at] { fired.push_back(at); });
    };
    record(-50.0);
    record(1e17);  // far beyond any tick the wheel can represent
    record(0.0);
    record(3.0);
    record(1e16);
    record(-50.0);
    while (!q.empty()) q.run_next();
    const std::vector<double> want{-50.0, -50.0, 0.0, 3.0, 1e16, 1e17};
    EXPECT_EQ(fired, want);
}

// The differential fuzz: one deterministic stream of schedule / cancel /
// bounded-pop operations applied to the calendar and the reference heap
// must yield identical ids, identical cancel outcomes, and an identical
// pop sequence.
TEST(EventQueueDifferential, RandomStreamsPopIdentically) {
    sim::event_queue calendar;
    reference_queue reference;
    stats::rng gen(20260808);

    struct popped {
        double at;
        int tag;
        bool operator==(const popped&) const = default;
    };
    std::vector<popped> cal_pops;
    std::vector<popped> ref_pops;
    std::vector<sim::event_id> live;
    double clock = 0.0;
    int next_tag = 0;

    const auto draw_time = [&gen, &clock] {
        const double u = gen.uniform();
        if (u < 0.30) {
            // Slot-aligned: forces same-tick ties and bucket-boundary
            // collisions.
            return clock + 9.0 * static_cast<double>(gen.uniform_int(64));
        }
        if (u < 0.60) return clock + gen.uniform(0.0, 200.0);
        if (u < 0.85) return clock + gen.uniform(0.0, 2.0 * kHorizonUs);
        if (u < 0.95) return clock + gen.uniform(0.0, 100.0 * kHorizonUs);
        return clock;  // exactly "now"
    };

    for (int step = 0; step < 30000; ++step) {
        const double u = gen.uniform();
        if (u < 0.5) {
            const double at = draw_time();
            const int tag = next_tag++;
            const auto cal_id = calendar.schedule(
                at, [&cal_pops, at, tag] { cal_pops.push_back({at, tag}); });
            const auto ref_id = reference.schedule(
                at, [&ref_pops, at, tag] { ref_pops.push_back({at, tag}); });
            ASSERT_EQ(cal_id, ref_id);
            live.push_back(cal_id);
        } else if (u < 0.7) {
            if (live.empty()) continue;
            const auto pick = gen.uniform_int(live.size());
            const auto id = live[pick];
            ASSERT_EQ(calendar.cancel(id), reference.cancel(id));
            live[pick] = live.back();
            live.pop_back();
        } else if (u < 0.9) {
            auto cal_next = calendar.pop_next_at_most(clock + 500.0);
            auto ref_next = reference.pop_next_at_most(clock + 500.0);
            ASSERT_EQ(cal_next.has_value(), ref_next.has_value());
            if (cal_next) {
                ASSERT_EQ(cal_next->first, ref_next->first);
                clock = std::max(clock, cal_next->first);
                cal_next->second();
                ref_next->second();
            }
        } else {
            ASSERT_EQ(calendar.empty(), reference.empty());
            if (!calendar.empty()) {
                ASSERT_EQ(calendar.next_time(), reference.next_time());
            }
        }
        ASSERT_EQ(calendar.size(), reference.size());
    }

    // Drain both queues completely.
    while (!calendar.empty() || !reference.empty()) {
        ASSERT_FALSE(calendar.empty());
        ASSERT_FALSE(reference.empty());
        auto cal_next = calendar.pop_next();
        auto ref_next = reference.pop_next();
        ASSERT_EQ(cal_next.first, ref_next.first);
        cal_next.second();
        ref_next.second();
    }
    ASSERT_EQ(cal_pops.size(), ref_pops.size());
    EXPECT_EQ(cal_pops, ref_pops);
}

/// The simulator's run_all loop over the reference queue: advance the
/// clock to each popped event, then run it.
class reference_simulator {
public:
    sim::time_us now() const noexcept { return now_; }
    void schedule_in(sim::time_us delay, reference_queue::action fn) {
        queue_.schedule(now_ + delay, std::move(fn));
    }
    void run_all() {
        while (!queue_.empty()) {
            auto [at, fn] = queue_.pop_next();
            now_ = at;
            fn();
            ++executed_;
        }
    }
    std::uint64_t events_executed() const noexcept { return executed_; }

private:
    reference_queue queue_;
    sim::time_us now_ = 0.0;
    std::uint64_t executed_ = 0;
};

struct ticker_run {
    std::uint64_t executed = 0;
    std::uint64_t sum = 0;
    std::vector<int> order;  ///< ticker index of every event, in run order
};

/// 16 self-rescheduling tickers with random gaps, all drawing from one
/// RNG stream in execution order, so any divergence in pop order also
/// changes every later draw.
template <class Kernel>
ticker_run run_tickers() {
    Kernel s;
    stats::rng gen(77);
    ticker_run out;
    struct ticker {
        Kernel* s;
        stats::rng* gen;
        ticker_run* out;
        int index;
        int remaining;
        void operator()() const {
            out->sum += static_cast<std::uint64_t>(s->now() * 16.0);
            out->order.push_back(index);
            if (remaining > 0) {
                ticker next{s, gen, out, index, remaining - 1};
                s->schedule_in(gen->uniform(0.0, 50.0), next);
            }
        }
    };
    for (int i = 0; i < 16; ++i) {
        s.schedule_in(gen.uniform(0.0, 100.0), ticker{&s, &gen, &out, i, 400});
    }
    s.run_all();
    out.executed = s.events_executed();
    return out;
}

TEST(EventQueueDifferential, SimulatorRunsIdenticallyOnBothBackends) {
    // Kernel-level differential: the same self-scheduling workload under
    // sim::simulator (calendar queue) and under the reference heap
    // executes the same events in the same order and sums the same
    // clock readings.
    const ticker_run calendar = run_tickers<sim::simulator>();
    const ticker_run reference = run_tickers<reference_simulator>();
    EXPECT_EQ(calendar.executed, 16u * 401u);
    EXPECT_EQ(calendar.executed, reference.executed);
    EXPECT_EQ(calendar.sum, reference.sum);
    EXPECT_EQ(calendar.order, reference.order);
}

}  // namespace
