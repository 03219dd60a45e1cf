// Discrete-event scheduler: the single source of truth for simulated time.
//
// Events fire in (time, insertion-order) order, so same-timestamp events are
// deterministic.  Storage is a calendar queue: a ring of fixed-width time
// buckets (width ~ one connection event), each an intrusive doubly-linked
// list kept sorted by (time, sequence), with a bitmap of occupied buckets so
// the drain cursor skips runs of empty windows in one countr_zero.
// Cancellation unlinks the node outright — no tombstones — so cancel-heavy
// workloads (dense worlds cancelling timeout guards every event) keep
// storage proportional to the live event count.  Nodes live in a
// per-scheduler chunk arena whose slots are recycled in place, and each
// node holds its callback inline, so steady-state schedule/fire/cancel churn
// — and the first burst of a freshly built world — performs one heap
// allocation per *chunk* of events, not per event.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace ble::sim {

/// Handle of a scheduled event: the index of its arena node in the high 32
/// bits and the node's generation at scheduling time in the low 32.
/// Generations are odd exactly while the node's event is pending, so a
/// handle whose event fired or was cancelled — even if the node now holds a
/// newer event — no longer matches, and 0 never does.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Scheduler {
public:
    Scheduler() = default;
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `fn` at absolute time `t` (clamped to `now()` if in the past).
    /// The callable is built in place inside the event's arena node (on the
    /// heap only if it is larger than kInlineBytes).  The returned EventId is
    /// the only way to cancel the event; discarding it (fire-and-forget)
    /// needs an audited allow(D4) lint suppression.
    template <typename F>
    [[nodiscard]] EventId schedule_at(TimePoint t, F&& fn) {
        using Fn = std::decay_t<F>;
        EventNode* node = free_ != nullptr ? free_ : grow();
        if constexpr (kFitsInline<Fn>) {
            ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
        } else {
            ::new (static_cast<void*>(node->storage)) Fn*(new Fn(std::forward<F>(fn)));
        }
        node->ops = &kOps<Fn>;
        return insert(t, node);
    }
    template <typename F>
    [[nodiscard]] EventId schedule_after(Duration d, F&& fn) {
        return schedule_at(now_ + d, std::forward<F>(fn));
    }

    /// Cancels a pending event. Cancelling an already-fired, running, or
    /// invalid id is a harmless no-op (devices routinely cancel their
    /// timeout guards).
    void cancel(EventId id) noexcept;

    [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

    /// Live entries actually stored in the calendar buckets.  Always equals
    /// pending(): cancels erase their node instead of tombstoning it, which
    /// is exactly what the churn regression test asserts.
    [[nodiscard]] std::size_t storage_entries() const noexcept;

    /// Recycled arena slots waiting for reuse (bounded by the peak live
    /// event count, rounded up to a chunk).
    [[nodiscard]] std::size_t pooled_nodes() const noexcept { return free_count_; }

    /// Runs the next event; returns false if none are pending.
    bool run_one();

    /// Runs all events with time <= t, then advances the clock to exactly t.
    void run_until(TimePoint t);

    void run_for(Duration d) { run_until(now_ + d); }

    /// Drains the queue (bounded by `max_events` as a runaway guard).
    std::size_t run_all(std::size_t max_events = 100'000'000);

    /// Callback bytes stored inside an event node.  Every callback src/
    /// schedules fits; the largest is AttackSession's guarded injection
    /// lambda at 56 B, and the node's alignment pads 56 to 64 anyway.
    static constexpr std::size_t kInlineBytes = 64;

private:
    /// Bucket width 2^20 ns (~1.05 ms), one connection event at the paper's
    /// shortest practical interval, so a connection's worth of traffic lands
    /// in one or two buckets and the drain cursor rarely skips.
    static constexpr int kBucketShift = 20;
    static constexpr std::size_t kNumBuckets = 256;
    static constexpr std::size_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kChunkShift = 6;
    static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;

    /// Firing key: time, then the monotonic scheduling sequence number.
    struct Key {
        TimePoint t;
        std::uint64_t seq;
        bool operator<(const Key& other) const noexcept {
            return t != other.t ? t < other.t : seq < other.seq;
        }
    };

    /// Type-erased run/destroy of the callable in an EventNode's storage.
    struct CallbackOps {
        void (*invoke)(void* storage);
        void (*destroy)(void* storage) noexcept;
    };
    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);
    template <typename Fn>
    static constexpr CallbackOps kOps =
        kFitsInline<Fn>
            ? CallbackOps{[](void* s) { (*static_cast<Fn*>(s))(); },
                          [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }}
            : CallbackOps{[](void* s) { (**static_cast<Fn**>(s))(); },
                          [](void* s) noexcept { delete *static_cast<Fn**>(s); }};

    /// One arena slot: a pending event linked into its bucket's sorted list,
    /// a running event (unlinked, callable alive), or a free slot threaded
    /// on the free list through `next`.
    struct EventNode {
        Key key{};
        EventNode* prev = nullptr;
        EventNode* next = nullptr;
        const CallbackOps* ops = nullptr;
        std::uint32_t index = 0;       ///< position in the arena
        std::uint32_t generation = 0;  ///< odd while pending
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /// A calendar bucket: sorted by Key, smallest at head.  Trivially
    /// constructible, so building a scheduler costs two null stores per
    /// bucket instead of a container construction.
    struct Bucket {
        EventNode* head = nullptr;
        EventNode* tail = nullptr;
    };

    [[nodiscard]] static constexpr std::int64_t window_of(TimePoint t) noexcept {
        return t >> kBucketShift;
    }
    [[nodiscard]] static constexpr std::size_t slot_of(TimePoint t) noexcept {
        return static_cast<std::size_t>(window_of(t)) & kBucketMask;
    }

    /// Adds a chunk of slots to the free list and returns its head.
    EventNode* grow();
    /// Takes `node` (the free-list head, callable already built) off the
    /// free list and links it into its bucket as a pending event.
    EventId insert(TimePoint t, EventNode* node) noexcept;
    /// Destroys the callable and returns the slot to the free list.
    void release(EventNode* node) noexcept;

    /// Finds the earliest live event at or after the cursor window.  Returns
    /// false when no events are pending.  The occupancy bitmap makes the
    /// scan proportional to the number of *occupied* buckets, not the number
    /// of empty windows crossed — events one connection interval apart
    /// (dozens of empty windows) cost the same as adjacent ones.
    bool find_next(std::int64_t& window, Bucket** bucket) noexcept;

    void mark_occupied(std::size_t slot) noexcept {
        occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void mark_empty(std::size_t slot) noexcept {
        occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    void fire(Bucket& bucket);
    void unlink(Bucket& bucket, EventNode* node, std::size_t slot) noexcept;

    TimePoint now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t pending_ = 0;
    /// Window currently being drained; every live event has t >= now(), and
    /// now() lies inside this window, so forward scans never miss an event.
    std::int64_t cursor_ = 0;
    std::array<Bucket, kNumBuckets> buckets_{};
    /// Bit b set iff buckets_[b] is non-empty; lets find_next skip runs of
    /// empty windows with countr_zero instead of probing each list.
    std::array<std::uint64_t, kNumBuckets / 64> occupancy_{};
    /// The node arena: node i is chunks_[i >> kChunkShift][i & (kChunkSlots - 1)].
    /// Chunks never move or shrink, so a node's address is stable while its
    /// callback runs, and are freed only with the scheduler.
    std::vector<std::unique_ptr<EventNode[]>> chunks_;
    EventNode* free_ = nullptr;
    std::size_t free_count_ = 0;
};

}  // namespace ble::sim
