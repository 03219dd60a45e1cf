// Minimal L2CAP basic-mode framing: [length u16 | CID u16 | payload],
// fragmented over Link-Layer data PDUs (LLID "start" / "continuation").
// ATT rides on the fixed channel 0x0004.
//
// Both directions run through buffers the channel keeps: send() frames the
// SDU in place and hands out views of its fragments, and a reassembled SDU is
// delivered as a view of the channel's storage.  Once the buffers have grown
// to the link's largest frame, an exchange allocates nothing.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "link/pdu.hpp"

namespace ble::host {

constexpr std::uint16_t kAttCid = 0x0004;

class L2capChannel {
public:
    /// Sends one LL fragment (LLID + payload; the view dies with the call).
    using SendFragment = std::function<void(link::Llid, BytesView)>;
    /// Delivers one reassembled SDU (the view dies with the call).
    using DeliverSdu = std::function<void(std::uint16_t cid, BytesView sdu)>;

    L2capChannel(std::size_t max_ll_payload, SendFragment send, DeliverSdu deliver)
        : max_ll_payload_(max_ll_payload), send_(std::move(send)),
          deliver_(std::move(deliver)) {}

    /// Frames `sdu` on `cid` and emits one or more LL fragments.
    void send(std::uint16_t cid, BytesView sdu);

    /// Feed every received (non-control) LL data PDU here.
    void handle_ll_pdu(const link::DataPdu& pdu);

    /// Drops a partly reassembled frame (the link it arrived on is gone).
    void reset() noexcept { rx_buffer_.clear(); }

    [[nodiscard]] std::size_t pending_rx_bytes() const noexcept { return rx_buffer_.size(); }

private:
    std::size_t max_ll_payload_;
    SendFragment send_;
    DeliverSdu deliver_;

    Bytes tx_frame_;   // the frame send() is fragmenting
    Bytes rx_buffer_;  // accumulating L2CAP frame (starts with header)
    Bytes rx_sdu_;     // the last complete frame, delivered from here
};

}  // namespace ble::host
