// Serialization between logical Link-Layer frames and the simulation
// medium's opaque AirFrame (Table I of the paper: preamble | access address |
// PDU | CRC).
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "phy/mode.hpp"
#include "sim/medium.hpp"

namespace ble::phy {

/// A frame as it appears after sync: access address + PDU + received CRC.
/// `pdu` views the bytes split_frame was given.
struct RawFrame {
    std::uint32_t access_address = 0;
    BytesView pdu;
    std::uint32_t crc = 0;

    /// True if `crc` matches the CRC recomputed over `pdu` with `crc_init`.
    [[nodiscard]] bool crc_ok(std::uint32_t crc_init) const noexcept;
};

/// Builds an on-air frame in `frame`: computes the CRC over the PDU with
/// `crc_init` and lays out AA | PDU | CRC with the PHY mode's timing.  The
/// PDU is `head` followed by `body`, so a PDU held as header and payload is
/// laid out in the frame's one buffer with no serialized temporary, and a
/// frame the caller reuses keeps its buffer's capacity.
void make_air_frame(sim::AirFrame& frame, std::uint32_t access_address, BytesView head,
                    BytesView body, std::uint32_t crc_init, Mode mode = Mode::kLe1M);
[[nodiscard]] inline sim::AirFrame make_air_frame(std::uint32_t access_address, BytesView pdu,
                                                  std::uint32_t crc_init,
                                                  Mode mode = Mode::kLe1M) {
    sim::AirFrame frame;
    make_air_frame(frame, access_address, pdu, {}, crc_init, mode);
    return frame;
}

/// Splits received bytes back into AA | PDU | CRC using the length field in
/// the PDU header (byte 1); the PDU is a view into `bytes`. Returns nullopt
/// for truncated/inconsistent buffers (e.g. a length byte corrupted by a
/// collision).
[[nodiscard]] std::optional<RawFrame> split_frame(BytesView bytes) noexcept;

}  // namespace ble::phy
