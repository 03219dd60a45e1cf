// FIFO over recycled slots.  pop_front() keeps the slot, and whatever buffer
// it owns, for a later push_back(), so a queue that has reached its working
// depth allocates nothing: a link's TX queue and the ATT request queue carry
// their payload buffers' capacity from one PDU to the next, where a
// std::deque would free each payload and allocate the next (and a fresh
// chunk every few pushes).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ble {

template <typename T>
class SlotQueue {
public:
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    [[nodiscard]] T& front() noexcept { return slots_[head_]; }
    [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

    /// Appends a slot and returns it.  The slot holds whatever an earlier
    /// element left there: the caller overwrites every field it uses.
    T& push_back() {
        if (size_ == slots_.size()) {
            // Full: unroll the ring so the new slot lands after the last one.
            std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                        slots_.end());
            head_ = 0;
            slots_.emplace_back();
        }
        ++size_;
        return slots_[(head_ + size_ - 1) % slots_.size()];
    }

    void pop_front() noexcept {
        head_ = (head_ + 1) % slots_.size();
        --size_;
    }

    void clear() noexcept {
        head_ = 0;
        size_ = 0;
    }

private:
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace ble
