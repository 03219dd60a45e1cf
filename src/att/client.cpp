#include "att/client.hpp"

namespace ble::att {

Bytes& AttClient::enqueue(ResultCallback callback) {
    Pending& slot = queue_.push_back();
    slot.callback = std::move(callback);
    return slot.pdu;
}

void AttClient::pump() {
    if (busy_ || queue_.empty()) return;
    busy_ = true;
    send_(queue_.front().pdu);
}

void AttClient::handle_pdu(AttView pdu) {
    switch (pdu.opcode) {
        case Opcode::kHandleValueNotification: {
            if (const auto hv = HandleValue::parse(pdu); hv && on_notification) {
                on_notification(hv->handle, Bytes(hv->value.begin(), hv->value.end()));
            }
            return;
        }
        case Opcode::kHandleValueIndication: {
            if (const auto hv = HandleValue::parse(pdu)) {
                if (on_indication) {
                    on_indication(hv->handle, Bytes(hv->value.begin(), hv->value.end()));
                }
                command_.assign(1, static_cast<std::uint8_t>(Opcode::kHandleValueConfirmation));
                send_(command_);
            }
            return;
        }
        default:
            break;
    }

    if (!busy_) return;  // unsolicited response: drop
    // Free the slot before the callback runs: it may queue the next request.
    const ResultCallback callback = std::move(queue_.front().callback);
    queue_.front().callback = nullptr;
    queue_.pop_front();
    busy_ = false;

    RequestResult result;
    if (pdu.opcode == Opcode::kErrorRsp) {
        result.error = ErrorRsp::parse(pdu);
    } else {
        result.response = pdu;
    }
    if (callback) callback(result);
    pump();
}

void AttClient::read(std::uint16_t handle,
                     std::function<void(std::optional<Bytes>)> callback) {
    ResultCallback on_result;
    if (callback) {
        on_result = [callback = std::move(callback)](const RequestResult& r) {
            if (r.ok() && r.response->opcode == Opcode::kReadRsp) {
                callback(Bytes(r.response->params.begin(), r.response->params.end()));
            } else {
                callback(std::nullopt);
            }
        };
    }
    write_handle_pdu(enqueue(std::move(on_result)), Opcode::kReadReq, handle);
    pump();
}

void AttClient::write(std::uint16_t handle, BytesView value,
                      std::function<void(bool)> callback) {
    ResultCallback on_result;
    if (callback) {
        on_result = [callback = std::move(callback)](const RequestResult& r) {
            callback(r.ok() && r.response->opcode == Opcode::kWriteRsp);
        };
    }
    write_handle_pdu(enqueue(std::move(on_result)), Opcode::kWriteReq, handle, value);
    pump();
}

void AttClient::write_command(std::uint16_t handle, BytesView value) {
    // Commands bypass the request queue: no response will ever arrive.
    write_handle_pdu(command_, Opcode::kWriteCmd, handle, value);
    send_(command_);
}

void AttClient::exchange_mtu(std::uint16_t mtu,
                             std::function<void(std::uint16_t)> callback) {
    ResultCallback on_result;
    if (callback) {
        on_result = [callback = std::move(callback)](const RequestResult& r) {
            if (r.ok() && r.response->opcode == Opcode::kExchangeMtuRsp &&
                r.response->params.size() == 2) {
                callback(static_cast<std::uint16_t>(r.response->params[0] |
                                                    (r.response->params[1] << 8)));
            } else {
                callback(0);
            }
        };
    }
    // Opcode | u16, the layout of a handle PDU.
    write_handle_pdu(enqueue(std::move(on_result)), Opcode::kExchangeMtuReq, mtu);
    pump();
}

}  // namespace ble::att
