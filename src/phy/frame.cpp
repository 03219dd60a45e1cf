#include "phy/frame.hpp"

#include <algorithm>

#include "phy/crc.hpp"
#include "phy/spec.hpp"

namespace ble::phy {

bool RawFrame::crc_ok(std::uint32_t crc_init) const noexcept {
    return crc24(pdu, crc_init) == crc;
}

namespace {
// Little-endian field access at a known-valid position (BLE sends every
// multi-byte field least-significant octet first).
void store_le(std::uint8_t* at, std::uint32_t value, std::size_t bytes) noexcept {
    for (std::size_t i = 0; i < bytes; ++i) at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}
std::uint32_t load_le(const std::uint8_t* at, std::size_t bytes) noexcept {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < bytes; ++i) value |= std::uint32_t{at[i]} << (8 * i);
    return value;
}
}  // namespace

void make_air_frame(sim::AirFrame& frame, std::uint32_t access_address, BytesView head,
                    BytesView body, std::uint32_t crc_init, Mode mode) {
    const std::size_t pdu_len = head.size() + body.size();
    Bytes& bytes = frame.bytes;
    bytes.resize(kAccessAddressBytes + pdu_len + kCrcBytes);
    std::uint8_t* const pdu = bytes.data() + kAccessAddressBytes;
    store_le(bytes.data(), access_address, kAccessAddressBytes);
    std::copy(head.begin(), head.end(), pdu);
    std::copy(body.begin(), body.end(), pdu + head.size());
    store_le(pdu + pdu_len, crc24(BytesView(pdu, pdu_len), crc_init), kCrcBytes);

    frame.preamble_time = preamble_time(mode);
    frame.byte_time = byte_time(mode);
    frame.sync_bytes = kAccessAddressBytes;  // a hit there kills sync
}

std::optional<RawFrame> split_frame(BytesView bytes) noexcept {
    // AA + PDU header + payload (len from the header's second byte) + CRC.
    if (bytes.size() < kAccessAddressBytes + kPduHeaderBytes + kCrcBytes)
        return std::nullopt;
    const std::size_t pdu_len = kPduHeaderBytes + bytes[kAccessAddressBytes + 1];
    if (bytes.size() != kAccessAddressBytes + pdu_len + kCrcBytes) return std::nullopt;
    RawFrame out;
    out.access_address = load_le(bytes.data(), kAccessAddressBytes);
    out.pdu = bytes.subspan(kAccessAddressBytes, pdu_len);
    out.crc = load_le(bytes.data() + kAccessAddressBytes + pdu_len, kCrcBytes);
    return out;
}

}  // namespace ble::phy
