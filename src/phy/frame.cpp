#include "phy/frame.hpp"

#include "phy/crc.hpp"
#include "phy/spec.hpp"

namespace ble::phy {

bool RawFrame::crc_ok(std::uint32_t crc_init) const noexcept {
    return crc24(pdu, crc_init) == crc;
}

sim::AirFrame make_air_frame(std::uint32_t access_address, BytesView head, BytesView body,
                             std::uint32_t crc_init, Mode mode) {
    ByteWriter w(kAccessAddressBytes + head.size() + body.size() + kCrcBytes);
    w.write_u32(access_address);
    w.write_bytes(head);
    w.write_bytes(body);
    w.write_u24(crc24(BytesView(w.bytes()).subspan(kAccessAddressBytes), crc_init));

    sim::AirFrame frame;
    frame.bytes = w.take();
    frame.preamble_time = preamble_time(mode);
    frame.byte_time = byte_time(mode);
    frame.sync_bytes = kAccessAddressBytes;  // a hit there kills sync
    return frame;
}

std::optional<RawFrame> split_frame(BytesView bytes) noexcept {
    // AA + PDU header + payload (len from the header's second byte) + CRC.
    if (bytes.size() < kAccessAddressBytes + kPduHeaderBytes + kCrcBytes)
        return std::nullopt;
    ByteReader r(bytes);
    RawFrame out;
    out.access_address = *r.read_u32();
    const std::size_t pdu_len = kPduHeaderBytes + bytes[kAccessAddressBytes + 1];
    if (r.remaining() != pdu_len + kCrcBytes) return std::nullopt;
    out.pdu = bytes.subspan(kAccessAddressBytes, pdu_len);
    r.skip(pdu_len);
    out.crc = *r.read_u24();
    return out;
}

}  // namespace ble::phy
