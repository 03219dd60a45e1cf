#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "obs/work_counters.hpp"
#include "sim/scheduler.hpp"

namespace ble::sim {
namespace {

/// A callable that counts its calls and its live copies; `Pad` payload bytes
/// decide whether it fits inside an event node.
template <std::size_t Pad>
struct Tracked {
    int* calls;
    int* live;
    std::array<unsigned char, Pad> pad{};
    Tracked(int* c, int* l) : calls(c), live(l) { ++*live; }
    Tracked(const Tracked& other) : calls(other.calls), live(other.live), pad(other.pad) {
        ++*live;
    }
    Tracked& operator=(const Tracked&) = delete;
    ~Tracked() { --*live; }
    void operator()() const { ++*calls; }
};
using Oversized = Tracked<Scheduler::kInlineBytes>;
static_assert(sizeof(Oversized) > Scheduler::kInlineBytes);

TEST(SchedulerTest, FiresInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    (void)s.schedule_at(300, [&] { order.push_back(3); });
    (void)s.schedule_at(100, [&] { order.push_back(1); });
    (void)s.schedule_at(200, [&] { order.push_back(2); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 300);
}

TEST(SchedulerTest, SameTimestampKeepsInsertionOrder) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        (void)s.schedule_at(42, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, SameTimestampOrderSurvivesInterleavedCancels) {
    // Cancellation must not disturb the FIFO order of the surviving
    // same-timestamp events — replays depend on it.
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(s.schedule_at(42, [&order, i] { order.push_back(i); }));
    }
    s.cancel(ids[1]);
    (void)s.schedule_at(42, [&order] { order.push_back(6); });
    s.cancel(ids[4]);
    (void)s.schedule_at(42, [&order] { order.push_back(7); });
    s.cancel(ids[0]);
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 6, 7}));
}

TEST(SchedulerTest, CancelPreventsExecution) {
    Scheduler s;
    bool fired = false;
    const EventId id = s.schedule_at(10, [&] { fired = true; });
    s.cancel(id);
    s.run_all();
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), 0);  // cancelled events do not advance time
}

TEST(SchedulerTest, CancelUnknownIdIsNoop) {
    Scheduler s;
    s.cancel(9999);
    s.cancel(kInvalidEvent);
    EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, RunUntilAdvancesClockExactly) {
    Scheduler s;
    int fired = 0;
    (void)s.schedule_at(100, [&] { ++fired; });
    (void)s.schedule_at(500, [&] { ++fired; });
    s.run_until(300);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), 300);
    s.run_until(600);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 600);
}

TEST(SchedulerTest, EventAtBoundaryIncludedByRunUntil) {
    Scheduler s;
    bool fired = false;
    (void)s.schedule_at(300, [&] { fired = true; });
    s.run_until(300);
    EXPECT_TRUE(fired);
}

TEST(SchedulerTest, PastEventsClampToNow) {
    Scheduler s;
    (void)s.schedule_at(100, [] {});
    s.run_all();
    TimePoint seen = -1;
    (void)s.schedule_at(5, [&] { seen = s.now(); });  // in the past
    s.run_all();
    EXPECT_EQ(seen, 100);
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
    Scheduler s;
    std::vector<TimePoint> times;
    (void)s.schedule_at(10, [&] {
        times.push_back(s.now());
        (void)s.schedule_after(15, [&] { times.push_back(s.now()); });
    });
    s.run_all();
    EXPECT_EQ(times, (std::vector<TimePoint>{10, 25}));
}

TEST(SchedulerTest, RunAllHonoursEventLimit) {
    Scheduler s;
    std::function<void()> self = [&] { (void)s.schedule_after(1, self); };
    (void)s.schedule_after(1, self);
    const std::size_t ran = s.run_all(1000);
    EXPECT_EQ(ran, 1000u);
}

TEST(SchedulerTest, PendingCountsOnlyLiveEvents) {
    Scheduler s;
    const EventId a = s.schedule_at(1, [] {});
    (void)s.schedule_at(2, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, WorkCountersSeeEveryDispatchAndTheQueueLeft) {
    obs::work::Counters counts;
    {
        const obs::work::Install install(&counts);
        Scheduler s;
        const EventId cancelled = s.schedule_at(1, [] {});
        (void)s.schedule_at(2, [] {});
        (void)s.schedule_at(3, [] {});
        (void)s.schedule_at(4, [] {});
        s.cancel(cancelled);
        s.run_all();
    }
    obs::MetricsRegistry registry;
    counts.export_metrics(registry);
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("prof.span.sim.dispatch.count"), 3u);
    // Sampled as each event fires, after it left the queue: 2, 1, 0.
    const obs::GaugeSnapshot depth = snap.gauges.at("prof.gauge.sim.sched.queue_depth");
    EXPECT_EQ(depth.samples, 3u);
    EXPECT_EQ(depth.max, 2);
    EXPECT_EQ(depth.min, 0);
    EXPECT_EQ(depth.last, 0);
}

// --- calendar-queue storage and window semantics (DESIGN.md §10) ---

TEST(SchedulerTest, StorageStaysBoundedUnderScheduleCancelChurn) {
    // Regression for the tombstone leak: the heap implementation this
    // replaced kept a dead entry per cancel until dispatch reached it, so a
    // schedule/cancel loop grew storage without bound.  The calendar queue
    // erases the node outright.
    Scheduler s;
    for (int round = 0; round < 10'000; ++round) {
        const EventId id = s.schedule_at(round * 10, [] {});
        s.cancel(id);
        ASSERT_EQ(s.pending(), 0u);
        ASSERT_EQ(s.storage_entries(), 0u);
    }
    EXPECT_TRUE(s.empty());
    // Extracted nodes recycle through a bounded freelist rather than leak.
    EXPECT_GE(s.pooled_nodes(), 1u);
    EXPECT_LE(s.pooled_nodes(), 4096u);
}

TEST(SchedulerTest, StorageMatchesPendingUnderMixedChurn) {
    // storage_entries() == pending() is the no-tombstones invariant; it must
    // hold at every point of an interleaved schedule/cancel/run workload.
    Scheduler s;
    std::vector<EventId> live;
    for (int i = 0; i < 500; ++i) {
        live.push_back(s.schedule_at(i * 7, [] {}));
        if (i % 3 == 0) {
            s.cancel(live.back());
            live.pop_back();
        }
        ASSERT_EQ(s.storage_entries(), s.pending());
    }
    s.run_until(250 * 7);
    EXPECT_EQ(s.storage_entries(), s.pending());
    s.run_all();
    EXPECT_EQ(s.storage_entries(), 0u);
    EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, FarApartEventsFireInOrderAcrossRingLaps) {
    // Events separated by more than the ring's span (256 buckets of ~1.05 ms)
    // alias into the same slot; dispatch order must stay global time order.
    Scheduler s;
    std::vector<int> order;
    const TimePoint lap = TimePoint{1} << 28;  // 256 windows of 2^20 ns
    (void)s.schedule_at(3 * lap + 5, [&] { order.push_back(3); });
    (void)s.schedule_at(5, [&] { order.push_back(1); });
    (void)s.schedule_at(lap + 5, [&] { order.push_back(2); });  // same slot as both
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 3 * lap + 5);
}

TEST(SchedulerTest, WindowBoundaryEventsKeepOrder) {
    Scheduler s;
    std::vector<int> order;
    const TimePoint width = TimePoint{1} << 20;  // bucket width
    (void)s.schedule_at(width - 1, [&] { order.push_back(1); });
    (void)s.schedule_at(width, [&] { order.push_back(2); });  // next bucket's first ns
    (void)s.schedule_at(width + 1, [&] { order.push_back(3); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SparseFarFutureEventReachedWithoutFullDrain) {
    // One event far beyond the ring span: find_next's min-scan jump must
    // reach it (and run_until must clamp the clock) without any events in
    // between.
    Scheduler s;
    const TimePoint far = (TimePoint{1} << 40) + 123;  // ~18 minutes out
    bool fired = false;
    (void)s.schedule_at(far, [&] { fired = true; });
    s.run_until(far - 1);
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), far - 1);
    s.run_until(far);
    EXPECT_TRUE(fired);
    EXPECT_EQ(s.now(), far);
}

// --- slot+generation handles and inline callbacks ---

TEST(SchedulerTest, StaleIdOfReusedSlotCancelsNothing) {
    Scheduler s;
    const EventId cancelled = s.schedule_at(10, [] {});
    s.cancel(cancelled);
    int fired = 0;
    const EventId reuse = s.schedule_at(20, [&] { ++fired; });
    ASSERT_EQ(reuse >> 32, cancelled >> 32);  // same arena node, new generation
    s.cancel(cancelled);
    EXPECT_EQ(s.pending(), 1u);
    s.run_all();
    EXPECT_EQ(fired, 1);

    // A fired event's id goes stale the same way.
    const EventId again = s.schedule_at(30, [&] { ++fired; });
    ASSERT_EQ(again >> 32, reuse >> 32);
    s.cancel(reuse);
    s.run_all();
    EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventCancellingItselfIsNoop) {
    Scheduler s;
    EventId self = kInvalidEvent;
    const std::string tag(40, 'x');  // heap-backed capture
    std::string seen;
    int later = 0;
    self = s.schedule_at(10, [&, tag] {
        s.cancel(self);
        // Enough new events to grow the arena: none may land in the slot
        // this callback is still running from.
        for (int i = 0; i < 200; ++i) (void)s.schedule_at(20, [&] { ++later; });
        seen = tag;
    });
    s.run_all();
    EXPECT_EQ(seen, tag);
    EXPECT_EQ(later, 200);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.storage_entries(), 0u);
}

TEST(SchedulerTest, OversizedCaptureFiresOnceAndIsDestroyedOnce) {
    int calls = 0;
    int live = 0;
    Scheduler s;
    (void)s.schedule_at(5, Oversized(&calls, &live));
    EXPECT_EQ(live, 1);  // only the scheduler's copy is left
    s.run_all();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 0);  // a second destruction would drive this negative

    const EventId id = s.schedule_at(9, Oversized(&calls, &live));
    s.cancel(id);
    EXPECT_EQ(live, 0);
    s.run_all();
    EXPECT_EQ(calls, 1);
}

TEST(SchedulerTest, PendingEventsAreDestroyedOnceWithTheScheduler) {
    int calls = 0;
    int live = 0;
    {
        Scheduler s;
        (void)s.schedule_at(5, Tracked<0>(&calls, &live));
        (void)s.schedule_at(6, Oversized(&calls, &live));
        const EventId gone = s.schedule_at(7, Tracked<0>(&calls, &live));
        s.cancel(gone);
        EXPECT_EQ(live, 2);
    }
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace ble::sim
