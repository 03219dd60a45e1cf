// Channel selection algorithms (paper §III-B.3).
//
// CSA#1: modular increment — trivially predictable, the algorithm the paper's
// experiments run on.  CSA#2 (BLE 5): a per-event PRN derived from the access
// address — also predictable once the AA is known, which is why the paper
// notes "the proposed approach can be easily adapted to the second
// algorithm".  Both are deterministic functions of sniffable parameters; that
// predictability is what lets the attacker follow the hops.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "link/channel_map.hpp"

namespace ble::link {

class ChannelSelector {
public:
    virtual ~ChannelSelector() = default;
    /// Channel for the connection event with the given counter. Must be called
    /// with monotonically increasing counters for CSA#1 (stateful); CSA#2 is
    /// pure. `set_channel_map` applies from the next call.
    virtual std::uint8_t channel_for_event(std::uint16_t event_counter) = 0;
    virtual void set_channel_map(const ChannelMap& map) = 0;
    [[nodiscard]] virtual std::unique_ptr<ChannelSelector> clone() const = 0;
};

/// Channel Selection Algorithm #1: unmapped = (last + hopIncrement) mod 37,
/// remapped through the used-channel table when unmapped is unused.
class Csa1 final : public ChannelSelector {
public:
    /// `initial_unmapped` seeds lastUnmappedChannel — 0 at connection setup;
    /// a sniffer that recovered an already-running connection passes the
    /// unmapped channel it synchronised on.
    Csa1(std::uint8_t hop_increment, ChannelMap map,
         std::uint8_t initial_unmapped = 0) noexcept
        : hop_(hop_increment), map_(map), last_unmapped_(initial_unmapped) {}

    std::uint8_t channel_for_event(std::uint16_t event_counter) override;
    void set_channel_map(const ChannelMap& map) override { map_ = map; }
    [[nodiscard]] std::unique_ptr<ChannelSelector> clone() const override {
        return std::make_unique<Csa1>(*this);
    }

private:
    std::uint8_t hop_;
    ChannelMap map_;
    std::uint8_t last_unmapped_ = 0;
};

/// Channel Selection Algorithm #2 (BLE 5.0): PRN from the access address and
/// event counter (Vol 6, Part B, §4.5.8.3).
class Csa2 final : public ChannelSelector {
public:
    Csa2(std::uint32_t access_address, ChannelMap map) noexcept;

    std::uint8_t channel_for_event(std::uint16_t event_counter) override;
    void set_channel_map(const ChannelMap& map) override { map_ = map; }
    [[nodiscard]] std::unique_ptr<ChannelSelector> clone() const override {
        return std::make_unique<Csa2>(*this);
    }

    /// The spec's prn_e intermediate, exposed for tests against the published
    /// sample data.
    [[nodiscard]] std::uint16_t prn_e(std::uint16_t event_counter) const noexcept;

private:
    std::uint16_t channel_identifier_;
    ChannelMap map_;
};

/// CSA#1 or CSA#2 held by value: a connection, or a follower of one, picks
/// its algorithm per connection without a heap block.
class HeldSelector {
public:
    ChannelSelector& csa1(std::uint8_t hop_increment, ChannelMap map,
                          std::uint8_t initial_unmapped = 0) noexcept {
        return held_.emplace<Csa1>(hop_increment, map, initial_unmapped);
    }
    ChannelSelector& csa2(std::uint32_t access_address, ChannelMap map) noexcept {
        return held_.emplace<Csa2>(access_address, map);
    }

private:
    std::variant<std::monostate, Csa1, Csa2> held_;
};

}  // namespace ble::link
