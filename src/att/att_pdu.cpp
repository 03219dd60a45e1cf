#include "att/att_pdu.hpp"

#include <algorithm>

namespace ble::att {

const char* opcode_name(Opcode opcode) noexcept {
    switch (opcode) {
        case Opcode::kErrorRsp: return "Error Response";
        case Opcode::kExchangeMtuReq: return "Exchange MTU Request";
        case Opcode::kExchangeMtuRsp: return "Exchange MTU Response";
        case Opcode::kFindInformationReq: return "Find Information Request";
        case Opcode::kFindInformationRsp: return "Find Information Response";
        case Opcode::kReadByTypeReq: return "Read By Type Request";
        case Opcode::kReadByTypeRsp: return "Read By Type Response";
        case Opcode::kReadReq: return "Read Request";
        case Opcode::kReadRsp: return "Read Response";
        case Opcode::kReadBlobReq: return "Read Blob Request";
        case Opcode::kReadBlobRsp: return "Read Blob Response";
        case Opcode::kReadByGroupTypeReq: return "Read By Group Type Request";
        case Opcode::kReadByGroupTypeRsp: return "Read By Group Type Response";
        case Opcode::kWriteReq: return "Write Request";
        case Opcode::kWriteRsp: return "Write Response";
        case Opcode::kWriteCmd: return "Write Command";
        case Opcode::kHandleValueNotification: return "Handle Value Notification";
        case Opcode::kHandleValueIndication: return "Handle Value Indication";
        case Opcode::kHandleValueConfirmation: return "Handle Value Confirmation";
    }
    return "Unknown";
}

Bytes AttPdu::serialize() const {
    ByteWriter w(1 + params.size());
    w.write_u8(static_cast<std::uint8_t>(opcode));
    w.write_bytes(params);
    return w.take();
}

std::optional<AttView> AttView::parse(BytesView data) noexcept {
    if (data.empty()) return std::nullopt;
    return AttView{static_cast<Opcode>(data[0]), data.subspan(1)};
}

std::optional<AttPdu> AttPdu::parse(BytesView data) noexcept {
    const auto view = AttView::parse(data);
    if (!view) return std::nullopt;
    return AttPdu{view->opcode, Bytes(view->params.begin(), view->params.end())};
}

void write_handle_pdu(Bytes& out, Opcode opcode, std::uint16_t handle, BytesView value) {
    out.resize(3 + value.size());
    out[0] = static_cast<std::uint8_t>(opcode);
    out[1] = static_cast<std::uint8_t>(handle & 0xFF);
    out[2] = static_cast<std::uint8_t>(handle >> 8);
    std::copy(value.begin(), value.end(), out.begin() + 3);
}

AttPdu make_error_rsp(Opcode request, std::uint16_t handle, ErrorCode error) {
    ByteWriter w(4);
    w.write_u8(static_cast<std::uint8_t>(request));
    w.write_u16(handle);
    w.write_u8(static_cast<std::uint8_t>(error));
    return AttPdu{Opcode::kErrorRsp, w.take()};
}

std::optional<ErrorRsp> ErrorRsp::parse(AttView pdu) noexcept {
    if (pdu.opcode != Opcode::kErrorRsp || pdu.params.size() != 4) return std::nullopt;
    ByteReader r(pdu.params);
    ErrorRsp out;
    out.request = static_cast<Opcode>(*r.read_u8());
    out.handle = *r.read_u16();
    out.error = static_cast<ErrorCode>(*r.read_u8());
    return out;
}

namespace {
AttPdu make_u16(Opcode opcode, std::uint16_t value) {
    ByteWriter w(2);
    w.write_u16(value);
    return AttPdu{opcode, w.take()};
}

AttPdu make_handle_value(Opcode opcode, std::uint16_t handle, BytesView value) {
    ByteWriter w(2 + value.size());
    w.write_u16(handle);
    w.write_bytes(value);
    return AttPdu{opcode, w.take()};
}
}  // namespace

AttPdu make_exchange_mtu_req(std::uint16_t mtu) { return make_u16(Opcode::kExchangeMtuReq, mtu); }

AttPdu make_read_req(std::uint16_t handle) { return make_u16(Opcode::kReadReq, handle); }

AttPdu make_read_rsp(BytesView value) {
    return AttPdu{Opcode::kReadRsp, Bytes(value.begin(), value.end())};
}

AttPdu make_write_req(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kWriteReq, handle, value);
}

AttPdu make_write_cmd(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kWriteCmd, handle, value);
}

AttPdu make_notification(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kHandleValueNotification, handle, value);
}

AttPdu make_indication(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kHandleValueIndication, handle, value);
}

std::optional<HandleValue> HandleValue::parse(AttView pdu) noexcept {
    if (pdu.params.size() < 2) return std::nullopt;
    return HandleValue{static_cast<std::uint16_t>(pdu.params[0] | (pdu.params[1] << 8)),
                       pdu.params.subspan(2)};
}

AttPdu make_find_information_req(std::uint16_t start, std::uint16_t end) {
    ByteWriter w(4);
    w.write_u16(start);
    w.write_u16(end);
    return AttPdu{Opcode::kFindInformationReq, w.take()};
}

namespace {
AttPdu make_range_type(Opcode opcode, std::uint16_t start, std::uint16_t end,
                       const Uuid& type) {
    ByteWriter w(4 + 16);
    w.write_u16(start);
    w.write_u16(end);
    type.write_to(w);
    return AttPdu{opcode, w.take()};
}
}  // namespace

AttPdu make_read_by_type_req(std::uint16_t start, std::uint16_t end, const Uuid& type) {
    return make_range_type(Opcode::kReadByTypeReq, start, end, type);
}

AttPdu make_read_by_group_type_req(std::uint16_t start, std::uint16_t end, const Uuid& type) {
    return make_range_type(Opcode::kReadByGroupTypeReq, start, end, type);
}

std::optional<RangeRequest> RangeRequest::parse(AttView pdu) noexcept {
    if (pdu.params.size() < 4) return std::nullopt;
    ByteReader r(pdu.params);
    RangeRequest out;
    out.start = *r.read_u16();
    out.end = *r.read_u16();
    const std::size_t rest = r.remaining();
    if (rest == 2 || rest == 16) {
        out.type = Uuid::read_from(r, rest);
        if (!out.type) return std::nullopt;
    } else if (rest != 0) {
        return std::nullopt;
    }
    return out;
}

}  // namespace ble::att
