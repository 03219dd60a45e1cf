#include "sim/scheduler.hpp"

#include "obs/work_counters.hpp"

namespace ble::sim {

Scheduler::~Scheduler() {
    for (Bucket& bucket : buckets_) {
        for (EventNode* node = bucket.head; node != nullptr; node = node->next) {
            node->ops->destroy(node->storage);
        }
    }
}

Scheduler::EventNode* Scheduler::grow() {
    const auto first = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique_for_overwrite<EventNode[]>(kChunkSlots));
    EventNode* chunk = chunks_.back().get();
    for (std::size_t i = kChunkSlots; i-- > 0;) {  // thread in address order
        chunk[i].index = first + static_cast<std::uint32_t>(i);
        chunk[i].next = free_;
        free_ = &chunk[i];
    }
    free_count_ += kChunkSlots;
    return free_;
}

void Scheduler::release(EventNode* node) noexcept {
    node->ops->destroy(node->storage);
    node->next = free_;
    free_ = node;
    ++free_count_;
}

void Scheduler::unlink(Bucket& bucket, EventNode* node, std::size_t slot) noexcept {
    if (node->prev != nullptr) {
        node->prev->next = node->next;
    } else {
        bucket.head = node->next;
    }
    if (node->next != nullptr) {
        node->next->prev = node->prev;
    } else {
        bucket.tail = node->prev;
    }
    if (bucket.head == nullptr) mark_empty(slot);
}

EventId Scheduler::insert(TimePoint t, EventNode* node) noexcept {
    free_ = node->next;
    --free_count_;
    ++node->generation;
    ++pending_;
    if (t < now_) t = now_;
    node->key = Key{t, next_seq_++};
    node->prev = nullptr;
    const std::size_t slot = slot_of(t);
    Bucket& bucket = buckets_[slot];
    // Sequence numbers are monotonic and simulations schedule forward, so
    // the new key almost always sorts after everything already in its
    // bucket: walk backward from the tail, which terminates immediately in
    // the hot case.
    EventNode* after = bucket.tail;
    while (after != nullptr && node->key < after->key) after = after->prev;
    if (after == nullptr) {  // new minimum (or empty bucket)
        node->next = bucket.head;
        if (bucket.head != nullptr) {
            bucket.head->prev = node;
        } else {
            bucket.tail = node;
            mark_occupied(slot);
        }
        bucket.head = node;
    } else {
        node->prev = after;
        node->next = after->next;
        if (after->next != nullptr) {
            after->next->prev = node;
        } else {
            bucket.tail = node;
        }
        after->next = node;
    }
    return (EventId{node->index} << 32) | node->generation;
}

void Scheduler::cancel(EventId id) noexcept {
    const auto index = static_cast<std::size_t>(id >> 32);
    if (index >= chunks_.size() * kChunkSlots) return;
    EventNode* node = &chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
    if (node->generation != static_cast<std::uint32_t>(id)) return;  // stale or never issued
    const std::size_t slot = slot_of(node->key.t);
    unlink(buckets_[slot], node, slot);
    ++node->generation;
    --pending_;
    release(node);
}

bool Scheduler::find_next(std::int64_t& window, Bucket** bucket) noexcept {
    if (pending_ == 0) return false;
    // Walk the *occupied* slots in circular order from the cursor, skipping
    // empty windows wholesale via the bitmap.  Within one lap, circular slot
    // distance is window order, so the first slot whose earliest entry
    // belongs to the window under the cursor is the global minimum: a slot
    // holding only later laps sorts >= cursor_ + kNumBuckets, which no
    // direct match inside this lap can exceed.
    const std::size_t start = static_cast<std::size_t>(cursor_) & kBucketMask;
    constexpr std::size_t kNumWords = kNumBuckets / 64;
    Bucket* best = nullptr;
    for (std::size_t step = 0; step <= kNumWords; ++step) {
        const std::size_t wi = ((start >> 6) + step) % kNumWords;
        std::uint64_t bits = occupancy_[wi];
        if (step == 0) {
            bits &= ~std::uint64_t{0} << (start & 63);  // slots >= start only
        } else if (step == kNumWords) {
            bits &= (std::uint64_t{1} << (start & 63)) - 1;  // wrapped remainder
        }
        while (bits != 0) {
            const std::size_t slot = (wi << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            Bucket& b = buckets_[slot];
            const std::int64_t w =
                cursor_ + static_cast<std::int64_t>((slot - start) & kBucketMask);
            if (window_of(b.head->key.t) == w) {
                window = w;
                *bucket = &b;
                return true;
            }
            // Lap-ahead slot: remember its minimum for the sparse fallback.
            if (best == nullptr || b.head->key < best->head->key) best = &b;
        }
    }
    // Every occupied slot holds only events > kNumBuckets windows away; the
    // loop above already reduced them to the exact global minimum.
    window = window_of(best->head->key.t);
    *bucket = best;
    return true;
}

void Scheduler::fire(Bucket& bucket) {
    EventNode* node = bucket.head;
    unlink(bucket, node, slot_of(node->key.t));
    // The id goes stale before the callback runs, so an event cancelling
    // itself is a no-op.  The slot stays off the free list until the
    // callback returns, so nothing it schedules can reuse the storage it is
    // running from; the guard frees it on unwind too.
    ++node->generation;
    --pending_;
    struct Release {
        Scheduler& scheduler;
        EventNode* node;
        ~Release() { scheduler.release(node); }
    } release_after{*this, node};
    now_ = node->key.t;
    cursor_ = window_of(now_);
    obs::work::count_dispatch(pending_);
    node->ops->invoke(node->storage);
}

bool Scheduler::run_one() {
    std::int64_t window = 0;
    Bucket* bucket = nullptr;
    if (!find_next(window, &bucket)) return false;
    fire(*bucket);
    return true;
}

void Scheduler::run_until(TimePoint t) {
    for (;;) {
        std::int64_t window = 0;
        Bucket* bucket = nullptr;
        if (!find_next(window, &bucket) || bucket->head->key.t > t) break;
        fire(*bucket);
    }
    if (now_ < t) now_ = t;
    cursor_ = window_of(now_);
}

std::size_t Scheduler::run_all(std::size_t max_events) {
    std::size_t count = 0;
    while (count < max_events && run_one()) ++count;
    return count;
}

std::size_t Scheduler::storage_entries() const noexcept {
    std::size_t total = 0;
    for (const Bucket& b : buckets_) {
        for (const EventNode* node = b.head; node != nullptr; node = node->next) ++total;
    }
    return total;
}

}  // namespace ble::sim
