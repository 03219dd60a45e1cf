#include "host/l2cap.hpp"

#include <algorithm>

namespace ble::host {

void L2capChannel::send(std::uint16_t cid, BytesView sdu) {
    ByteWriter w(4 + sdu.size());
    w.write_u16(static_cast<std::uint16_t>(sdu.size()));
    w.write_u16(cid);
    w.write_bytes(sdu);
    const Bytes frame = w.take();

    for (std::size_t off = 0; off < frame.size(); off += max_ll_payload_) {
        const std::size_t n = std::min(max_ll_payload_, frame.size() - off);
        Bytes fragment(frame.begin() + static_cast<std::ptrdiff_t>(off),
                       frame.begin() + static_cast<std::ptrdiff_t>(off + n));
        send_(off == 0 ? link::Llid::kDataStart : link::Llid::kDataContinuation,
              std::move(fragment));
    }
}

void L2capChannel::handle_ll_pdu(const link::DataPdu& pdu) {
    if (pdu.llid == link::Llid::kDataStart) {
        rx_buffer_ = pdu.payload;
    } else if (pdu.llid == link::Llid::kDataContinuation && !pdu.payload.empty()) {
        if (rx_buffer_.empty()) return;  // continuation without a start fragment: drop
        rx_buffer_.insert(rx_buffer_.end(), pdu.payload.begin(), pdu.payload.end());
    } else {
        return;
    }

    if (rx_buffer_.size() < 4) return;  // header incomplete
    ByteReader r(rx_buffer_);
    const std::uint16_t len = *r.read_u16();
    const std::uint16_t cid = *r.read_u16();
    rx_expected_ = 4u + len;
    if (rx_buffer_.size() < rx_expected_) return;
    if (rx_buffer_.size() > rx_expected_) {  // oversized frame: drop
        rx_buffer_.clear();
        return;
    }
    const Bytes sdu(rx_buffer_.begin() + 4, rx_buffer_.end());
    rx_buffer_.clear();
    deliver_(cid, sdu);
}

}  // namespace ble::host
