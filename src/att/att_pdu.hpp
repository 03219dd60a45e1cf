// ATT protocol PDUs (Vol 3, Part F) — the application layer the paper's
// scenario A injects: "injecting ATT Requests allows the attacker to interact
// with the ATT server, which is used in BLE as a generic application layer."
#pragma once

#include <cstdint>
#include <optional>

#include "att/uuid.hpp"
#include "common/bytes.hpp"

namespace ble::att {

enum class Opcode : std::uint8_t {
    kErrorRsp = 0x01,
    kExchangeMtuReq = 0x02,
    kExchangeMtuRsp = 0x03,
    kFindInformationReq = 0x04,
    kFindInformationRsp = 0x05,
    kReadByTypeReq = 0x08,
    kReadByTypeRsp = 0x09,
    kReadReq = 0x0A,
    kReadRsp = 0x0B,
    kReadBlobReq = 0x0C,
    kReadBlobRsp = 0x0D,
    kReadByGroupTypeReq = 0x10,
    kReadByGroupTypeRsp = 0x11,
    kWriteReq = 0x12,
    kWriteRsp = 0x13,
    kWriteCmd = 0x52,
    kHandleValueNotification = 0x1B,
    kHandleValueIndication = 0x1D,
    kHandleValueConfirmation = 0x1E,
};

[[nodiscard]] const char* opcode_name(Opcode opcode) noexcept;

enum class ErrorCode : std::uint8_t {
    kInvalidHandle = 0x01,
    kReadNotPermitted = 0x02,
    kWriteNotPermitted = 0x03,
    kInvalidPdu = 0x04,
    kRequestNotSupported = 0x06,
    kAttributeNotFound = 0x0A,
    kUnlikelyError = 0x0E,
    kInvalidAttributeValueLength = 0x0D,
};

/// A PDU read in place: the opcode and a view of the parameters after it.
/// What the stack parses a received SDU into; valid while the SDU's bytes are.
struct AttView {
    Opcode opcode{};
    BytesView params;

    static std::optional<AttView> parse(BytesView data) noexcept;
};

/// Generic ATT PDU that owns its parameters, for building PDUs and holding
/// them past the SDU they arrived in. Typed helpers below.
struct AttPdu {
    Opcode opcode{};
    Bytes params;

    /// Implicit, so that every parser taking an AttView takes an AttPdu too.
    operator AttView() const noexcept { return {opcode, params}; }
    [[nodiscard]] Bytes serialize() const;
    static std::optional<AttPdu> parse(BytesView data) noexcept;
};

/// Writes the wire form opcode | handle | value (a Read or Write Request, a
/// Write Command, a Notification or an Indication) into `out`, reusing its
/// storage: the allocation-free counterpart of the make_* builders below.
void write_handle_pdu(Bytes& out, Opcode opcode, std::uint16_t handle, BytesView value = {});

// --- typed builders/parsers for the PDUs the stack and attacks use ---

[[nodiscard]] AttPdu make_error_rsp(Opcode request, std::uint16_t handle, ErrorCode error);
struct ErrorRsp {
    Opcode request{};
    std::uint16_t handle = 0;
    ErrorCode error{};
    static std::optional<ErrorRsp> parse(AttView pdu) noexcept;
};

[[nodiscard]] AttPdu make_exchange_mtu_req(std::uint16_t mtu);

[[nodiscard]] AttPdu make_read_req(std::uint16_t handle);
[[nodiscard]] AttPdu make_read_rsp(BytesView value);

[[nodiscard]] AttPdu make_write_req(std::uint16_t handle, BytesView value);
[[nodiscard]] AttPdu make_write_cmd(std::uint16_t handle, BytesView value);

[[nodiscard]] AttPdu make_notification(std::uint16_t handle, BytesView value);
[[nodiscard]] AttPdu make_indication(std::uint16_t handle, BytesView value);

struct HandleValue {
    std::uint16_t handle = 0;
    BytesView value;  ///< a view into the parsed PDU
    /// Parses ReadReq / WriteReq / WriteCmd / Notification / Indication.
    static std::optional<HandleValue> parse(AttView pdu) noexcept;
};

[[nodiscard]] AttPdu make_find_information_req(std::uint16_t start, std::uint16_t end);
[[nodiscard]] AttPdu make_read_by_type_req(std::uint16_t start, std::uint16_t end,
                                           const Uuid& type);
[[nodiscard]] AttPdu make_read_by_group_type_req(std::uint16_t start, std::uint16_t end,
                                                 const Uuid& type);

struct RangeRequest {
    std::uint16_t start = 0;
    std::uint16_t end = 0;
    std::optional<Uuid> type;  // set for *ByType / *ByGroupType
    static std::optional<RangeRequest> parse(AttView pdu) noexcept;
};

}  // namespace ble::att
