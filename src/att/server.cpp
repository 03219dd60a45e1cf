#include "att/server.hpp"

#include <algorithm>

namespace ble::att {

namespace {
// Group-end helper: services run until the next service declaration.
constexpr std::uint16_t kPrimaryServiceUuid = 0x2800;
constexpr std::uint16_t kSecondaryServiceUuid = 0x2801;

bool is_service_declaration(const Uuid& type) noexcept {
    return type == Uuid::from16(kPrimaryServiceUuid) ||
           type == Uuid::from16(kSecondaryServiceUuid);
}

/// Writes an Error Response into `out`; true, so a handler can return it.
bool write_error(Bytes& out, Opcode request, std::uint16_t handle, ErrorCode error) {
    out.assign({static_cast<std::uint8_t>(Opcode::kErrorRsp),
                static_cast<std::uint8_t>(request), static_cast<std::uint8_t>(handle & 0xFF),
                static_cast<std::uint8_t>(handle >> 8), static_cast<std::uint8_t>(error)});
    return true;
}

/// Writes `opcode | format | entries` into `out`, for the discovery responses.
bool write_list(Bytes& out, Opcode opcode, std::size_t format, const ByteWriter& entries) {
    out.assign({static_cast<std::uint8_t>(opcode), static_cast<std::uint8_t>(format)});
    out.insert(out.end(), entries.bytes().begin(), entries.bytes().end());
    return true;
}
}  // namespace

std::uint16_t AttServer::add(Attribute attribute) {
    attribute.handle = static_cast<std::uint16_t>(db_.size() + 1);
    db_.push_back(std::move(attribute));
    initial_values_.push_back(db_.back().value);
    return db_.back().handle;
}

void AttServer::restore_values() {
    for (std::size_t i = 0; i < db_.size(); ++i) {
        db_[i].value.assign(initial_values_[i].begin(), initial_values_[i].end());
    }
}

Attribute* AttServer::find(std::uint16_t handle) noexcept {
    if (handle == 0 || handle > db_.size()) return nullptr;
    return &db_[handle - 1];
}

const Attribute* AttServer::find(std::uint16_t handle) const noexcept {
    if (handle == 0 || handle > db_.size()) return nullptr;
    return &db_[handle - 1];
}

const Attribute* AttServer::find_by_type(std::uint16_t start, std::uint16_t end,
                                         const Uuid& type) const noexcept {
    for (const auto& attr : db_) {
        if (attr.handle >= start && attr.handle <= end && attr.type == type) return &attr;
    }
    return nullptr;
}

bool AttServer::respond(AttView request, Bytes& response) {
    switch (request.opcode) {
        case Opcode::kExchangeMtuReq:
            // Opcode | u16, the layout of a handle PDU.
            write_handle_pdu(response, Opcode::kExchangeMtuRsp, mtu_);
            return true;
        case Opcode::kReadReq:
            return handle_read(request, response);
        case Opcode::kWriteReq:
            return handle_write(request, /*is_command=*/false, response);
        case Opcode::kWriteCmd:
            return handle_write(request, /*is_command=*/true, response);
        case Opcode::kFindInformationReq:
            return handle_find_information(request, response);
        case Opcode::kReadByTypeReq:
            return handle_read_by_type(request, response);
        case Opcode::kReadByGroupTypeReq:
            return handle_read_by_group_type(request, response);
        case Opcode::kHandleValueConfirmation:
            return false;
        default:
            // Commands (odd bit 6 set) are silently dropped; requests get an
            // error so the client is not left hanging.
            if ((static_cast<std::uint8_t>(request.opcode) & 0x40) != 0) return false;
            return write_error(response, request.opcode, 0, ErrorCode::kRequestNotSupported);
    }
}

std::optional<AttPdu> AttServer::handle_pdu(AttView request) {
    Bytes response;
    if (!respond(request, response)) return std::nullopt;
    return AttPdu::parse(response);
}

bool AttServer::handle_read(AttView request, Bytes& out) {
    const auto hv = HandleValue::parse(request);
    if (!hv) return write_error(out, request.opcode, 0, ErrorCode::kInvalidPdu);
    const Attribute* attr = find(hv->handle);
    if (attr == nullptr) {
        return write_error(out, request.opcode, hv->handle, ErrorCode::kInvalidHandle);
    }
    if (!attr->readable) {
        return write_error(out, request.opcode, hv->handle, ErrorCode::kReadNotPermitted);
    }
    Bytes dynamic;
    BytesView value = attr->value;
    if (attr->on_read) {
        dynamic = attr->on_read();
        value = dynamic;
    }
    // Truncate to MTU - 1 like a real server.
    value = value.first(std::min<std::size_t>(value.size(), mtu_ - 1u));
    out.resize(1 + value.size());
    out[0] = static_cast<std::uint8_t>(Opcode::kReadRsp);
    std::copy(value.begin(), value.end(), out.begin() + 1);
    return true;
}

bool AttServer::handle_write(AttView request, bool is_command, Bytes& out) {
    // A command is never answered, not even with an error.
    const auto refuse = [&](std::uint16_t handle, ErrorCode error) {
        return !is_command && write_error(out, request.opcode, handle, error);
    };
    const auto hv = HandleValue::parse(request);
    if (!hv) return refuse(0, ErrorCode::kInvalidPdu);
    Attribute* attr = find(hv->handle);
    if (attr == nullptr) return refuse(hv->handle, ErrorCode::kInvalidHandle);
    if (!attr->writable) return refuse(hv->handle, ErrorCode::kWriteNotPermitted);
    if (attr->on_write) {
        if (const auto error = attr->on_write(hv->value)) return refuse(hv->handle, *error);
    }
    attr->value.assign(hv->value.begin(), hv->value.end());
    if (is_command) return false;
    out.assign(1, static_cast<std::uint8_t>(Opcode::kWriteRsp));
    return true;
}

bool AttServer::handle_find_information(AttView request, Bytes& out) {
    const auto range = RangeRequest::parse(request);
    if (!range || range->start == 0 || range->start > range->end) {
        return write_error(out, request.opcode, 0, ErrorCode::kInvalidPdu);
    }
    // Format 1 (16-bit UUIDs) or 2 (128-bit); all entries in one response
    // must share a format.
    ByteWriter w;
    std::optional<bool> fmt16;
    for (const auto& attr : db_) {
        if (attr.handle < range->start || attr.handle > range->end) continue;
        const bool is16 = attr.type.is16();
        if (!fmt16) fmt16 = is16;
        if (*fmt16 != is16) break;
        if (w.size() + (is16 ? 4u : 18u) > mtu_ - 2u) break;
        w.write_u16(attr.handle);
        attr.type.write_to(w);
    }
    if (!fmt16) {
        return write_error(out, request.opcode, range->start, ErrorCode::kAttributeNotFound);
    }
    return write_list(out, Opcode::kFindInformationRsp, *fmt16 ? 0x01 : 0x02, w);
}

bool AttServer::handle_read_by_type(AttView request, Bytes& out) {
    const auto range = RangeRequest::parse(request);
    if (!range || !range->type || range->start == 0 || range->start > range->end) {
        return write_error(out, request.opcode, 0, ErrorCode::kInvalidPdu);
    }
    ByteWriter w;
    std::optional<std::size_t> entry_len;
    for (const auto& attr : db_) {
        if (attr.handle < range->start || attr.handle > range->end) continue;
        if (!(attr.type == *range->type)) continue;
        const Bytes value = attr.on_read ? attr.on_read() : attr.value;
        const std::size_t len = 2 + value.size();
        if (!entry_len) entry_len = len;
        if (*entry_len != len) break;
        if (w.size() + len > mtu_ - 2u) break;
        w.write_u16(attr.handle);
        w.write_bytes(value);
    }
    if (!entry_len) {
        return write_error(out, request.opcode, range->start, ErrorCode::kAttributeNotFound);
    }
    return write_list(out, Opcode::kReadByTypeRsp, *entry_len, w);
}

bool AttServer::handle_read_by_group_type(AttView request, Bytes& out) {
    const auto range = RangeRequest::parse(request);
    if (!range || !range->type || range->start == 0 || range->start > range->end) {
        return write_error(out, request.opcode, 0, ErrorCode::kInvalidPdu);
    }
    if (!is_service_declaration(*range->type)) {
        return write_error(out, request.opcode, range->start, ErrorCode::kRequestNotSupported);
    }
    ByteWriter w;
    std::optional<std::size_t> entry_len;
    for (std::size_t i = 0; i < db_.size(); ++i) {
        const auto& attr = db_[i];
        if (attr.handle < range->start || attr.handle > range->end) continue;
        if (!(attr.type == *range->type)) continue;
        // Group end: last handle before the next service declaration.
        std::uint16_t group_end = static_cast<std::uint16_t>(db_.size());
        for (std::size_t j = i + 1; j < db_.size(); ++j) {
            if (is_service_declaration(db_[j].type)) {
                group_end = static_cast<std::uint16_t>(db_[j].handle - 1);
                break;
            }
        }
        const std::size_t len = 4 + attr.value.size();
        if (!entry_len) entry_len = len;
        if (*entry_len != len) break;
        if (w.size() + len > mtu_ - 2u) break;
        w.write_u16(attr.handle);
        w.write_u16(group_end);
        w.write_bytes(attr.value);
    }
    if (!entry_len) {
        return write_error(out, request.opcode, range->start, ErrorCode::kAttributeNotFound);
    }
    return write_list(out, Opcode::kReadByGroupTypeRsp, *entry_len, w);
}

}  // namespace ble::att
