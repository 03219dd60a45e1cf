#include "host/l2cap.hpp"

#include <algorithm>

namespace ble::host {

void L2capChannel::send(std::uint16_t cid, BytesView sdu) {
    const auto len = static_cast<std::uint16_t>(sdu.size());
    tx_frame_.resize(4 + sdu.size());
    tx_frame_[0] = static_cast<std::uint8_t>(len & 0xFF);
    tx_frame_[1] = static_cast<std::uint8_t>(len >> 8);
    tx_frame_[2] = static_cast<std::uint8_t>(cid & 0xFF);
    tx_frame_[3] = static_cast<std::uint8_t>(cid >> 8);
    std::copy(sdu.begin(), sdu.end(), tx_frame_.begin() + 4);

    const BytesView frame(tx_frame_);
    for (std::size_t off = 0; off < frame.size(); off += max_ll_payload_) {
        const std::size_t n = std::min(max_ll_payload_, frame.size() - off);
        send_(off == 0 ? link::Llid::kDataStart : link::Llid::kDataContinuation,
              frame.subspan(off, n));
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
    const std::size_t expected = 4u + len;
    if (rx_buffer_.size() < expected) return;
    if (rx_buffer_.size() > expected) {  // oversized frame: drop
        rx_buffer_.clear();
        return;
    }
    // Deliver from the other buffer, so that the channel is idle (and touched
    // no more) while the upper layer runs.  The two trade roles on every
    // frame, so each is kept as large as the other: which one a link (or a
    // restarted world's next link) receives into never decides whether a
    // frame allocates.
    rx_sdu_.swap(rx_buffer_);
    rx_buffer_.clear();
    if (rx_buffer_.capacity() < rx_sdu_.capacity()) rx_buffer_.reserve(rx_sdu_.capacity());
    deliver_(cid, BytesView(rx_sdu_).subspan(4));
}

}  // namespace ble::host
