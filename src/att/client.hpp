// ATT client: issues one outstanding request at a time (the ATT flow-control
// rule) and routes responses/notifications back to callbacks.
//
// Requests are queued in their wire form, in slots that keep their buffers
// from one request to the next, and responses are handed to callbacks as
// views of the received SDU: a read or write without a callback allocates
// nothing once the queue has reached its working depth.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "att/att_pdu.hpp"
#include "common/slot_queue.hpp"

namespace ble::att {

/// Result of a request: a response PDU or the server's Error Response.  The
/// response views the received SDU and lives only as long as the callback.
struct RequestResult {
    std::optional<AttView> response;
    std::optional<ErrorRsp> error;

    [[nodiscard]] bool ok() const noexcept { return response.has_value(); }
};

class AttClient {
public:
    /// Transmits one PDU in wire form (opcode first).
    using SendFn = std::function<void(BytesView pdu)>;
    using ResultCallback = std::function<void(const RequestResult&)>;

    explicit AttClient(SendFn send) : send_(std::move(send)) {}

    /// Drops every queued request and the notification callbacks, keeping
    /// the queue's slots and buffers.
    void restart() noexcept {
        queue_.clear();
        busy_ = false;
        on_notification = nullptr;
        on_indication = nullptr;
    }

    /// Feed every server->client ATT PDU here.
    void handle_pdu(AttView pdu);

    /// Requests are queued; callbacks fire in order as responses arrive.  A
    /// null callback costs nothing.
    void read(std::uint16_t handle, std::function<void(std::optional<Bytes>)> callback);
    void write(std::uint16_t handle, BytesView value, std::function<void(bool)> callback);
    /// Write Command: fire-and-forget, no response expected.
    void write_command(std::uint16_t handle, BytesView value);
    void exchange_mtu(std::uint16_t mtu, std::function<void(std::uint16_t)> callback);

    /// Unsolicited server pushes.
    std::function<void(std::uint16_t handle, const Bytes& value)> on_notification;
    std::function<void(std::uint16_t handle, const Bytes& value)> on_indication;

    [[nodiscard]] bool busy() const noexcept { return busy_; }
    [[nodiscard]] std::size_t queued() const noexcept {
        return queue_.size() - (busy_ ? 1 : 0);
    }

private:
    /// Queues a request slot for `callback` and returns its PDU buffer, which
    /// the caller fills before pump().
    Bytes& enqueue(ResultCallback callback);
    void pump();

    struct Pending {
        Bytes pdu;  ///< wire form
        ResultCallback callback;
    };

    SendFn send_;
    SlotQueue<Pending> queue_;  ///< the front request is in flight while busy_
    bool busy_ = false;
    Bytes command_;  ///< wire form of the last command or confirmation
};

}  // namespace ble::att
