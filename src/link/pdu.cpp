#include "link/pdu.hpp"

namespace ble::link {

namespace {
constexpr std::uint8_t kLlidMask = 0b11;
constexpr std::uint8_t kNesnBit = 1u << 2;
constexpr std::uint8_t kSnBit = 1u << 3;
constexpr std::uint8_t kMdBit = 1u << 4;
}  // namespace

std::array<std::uint8_t, 2> DataPdu::header() const noexcept {
    std::uint8_t flags = static_cast<std::uint8_t>(llid) & kLlidMask;
    if (nesn) flags |= kNesnBit;
    if (sn) flags |= kSnBit;
    if (md) flags |= kMdBit;
    return {flags, static_cast<std::uint8_t>(payload.size())};
}

Bytes DataPdu::serialize() const {
    ByteWriter w(2 + payload.size());
    w.write_bytes(header());
    w.write_bytes(payload);
    return w.take();
}

bool DataPdu::parse(BytesView pdu, DataPdu& out) noexcept {
    if (!parse_header(pdu, out)) return false;
    out.payload.assign(pdu.begin() + 2, pdu.end());
    return true;
}

bool DataPdu::parse_header(BytesView pdu, DataPdu& out) noexcept {
    if (pdu.size() < 2) return false;
    const std::uint8_t flags = pdu[0];
    const std::uint8_t length = pdu[1];
    if (pdu.size() != static_cast<std::size_t>(length) + 2) return false;
    out.llid = static_cast<Llid>(flags & kLlidMask);
    if (out.llid == Llid::kReserved) return false;
    out.nesn = (flags & kNesnBit) != 0;
    out.sn = (flags & kSnBit) != 0;
    out.md = (flags & kMdBit) != 0;
    return true;
}

std::array<std::uint8_t, 2> AdvPdu::header() const noexcept {
    std::uint8_t flags = static_cast<std::uint8_t>(type) & 0x0F;
    if (ch_sel) flags |= 1u << 5;
    if (tx_add) flags |= 1u << 6;
    if (rx_add) flags |= 1u << 7;
    return {flags, static_cast<std::uint8_t>(payload.size() & 0x3F)};
}

Bytes AdvPdu::serialize() const {
    ByteWriter w(2 + payload.size());
    w.write_bytes(header());
    w.write_bytes(payload);
    return w.take();
}

bool AdvPdu::parse_header(BytesView pdu, AdvPdu& out) noexcept {
    if (pdu.size() < 2) return false;
    const std::uint8_t flags = pdu[0];
    const std::uint8_t length = pdu[1] & 0x3F;
    if (pdu.size() != static_cast<std::size_t>(length) + 2) return false;
    out.type = static_cast<AdvPduType>(flags & 0x0F);
    out.ch_sel = (flags & (1u << 5)) != 0;
    out.tx_add = (flags & (1u << 6)) != 0;
    out.rx_add = (flags & (1u << 7)) != 0;
    return true;
}

bool AdvPdu::parse(BytesView pdu, AdvPdu& out) noexcept {
    if (!parse_header(pdu, out)) return false;
    out.payload.assign(pdu.begin() + 2, pdu.end());
    return true;
}

}  // namespace ble::link
