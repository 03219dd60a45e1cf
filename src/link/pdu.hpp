// Link-Layer PDU headers (Vol 6, Part B, §2.3 / §2.4).
//
// The two header bits at the heart of the paper's Eq. 6 — SN and NESN — live
// in the first byte of every data-channel PDU.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace ble::link {

/// LLID field of a data-channel PDU header.
enum class Llid : std::uint8_t {
    kReserved = 0b00,
    kDataContinuation = 0b01,  ///< L2CAP continuation, or empty PDU (len 0)
    kDataStart = 0b10,         ///< start of an L2CAP message
    kControl = 0b11,           ///< LL control PDU
};

/// Header + payload of a data-channel PDU.
struct DataPdu {
    Llid llid = Llid::kDataContinuation;
    bool nesn = false;
    bool sn = false;
    bool md = false;  ///< More Data: keeps the connection event open
    Bytes payload;

    [[nodiscard]] bool is_empty() const noexcept {
        return llid == Llid::kDataContinuation && payload.empty();
    }
    [[nodiscard]] bool is_control() const noexcept { return llid == Llid::kControl; }

    /// The 2 header bytes: LLID, NESN, SN and MD, then the payload length.
    [[nodiscard]] std::array<std::uint8_t, 2> header() const noexcept;
    /// Serializes header (2 bytes) + payload.
    [[nodiscard]] Bytes serialize() const;
    /// Parses a PDU into `out`, reusing its payload buffer; false (and `out`
    /// unspecified) on truncation or header/length mismatch.
    static bool parse(BytesView pdu, DataPdu& out) noexcept;
    /// The same checks, reading only the header fields: `out.payload` is left
    /// untouched, so a reader that views the payload in place copies nothing.
    static bool parse_header(BytesView pdu, DataPdu& out) noexcept;
    /// By-value form of the parser above; nullopt where it returns false.
    static std::optional<DataPdu> parse(BytesView pdu) noexcept {
        DataPdu out;
        if (!parse(pdu, out)) return std::nullopt;
        return out;
    }

    static DataPdu empty(bool nesn, bool sn) {
        DataPdu p;
        p.llid = Llid::kDataContinuation;
        p.nesn = nesn;
        p.sn = sn;
        return p;
    }
};

/// Advertising-channel PDU types (4-bit header field).
enum class AdvPduType : std::uint8_t {
    kAdvInd = 0b0000,
    kAdvDirectInd = 0b0001,
    kAdvNonconnInd = 0b0010,
    kScanReq = 0b0011,
    kScanRsp = 0b0100,
    kConnectReq = 0b0101,
    kAdvScanInd = 0b0110,
};

/// Header + payload of an advertising-channel PDU.
struct AdvPdu {
    AdvPduType type = AdvPduType::kAdvInd;
    /// ChSel header bit: the sender supports Channel Selection Algorithm #2.
    /// Set on both ADV_IND and CONNECT_REQ => the connection uses CSA#2.
    bool ch_sel = false;
    bool tx_add = false;  ///< advertiser address is random
    bool rx_add = false;  ///< target address is random
    Bytes payload;

    /// The 2 header bytes: type and the ChSel/TxAdd/RxAdd bits, then the
    /// payload length.
    [[nodiscard]] std::array<std::uint8_t, 2> header() const noexcept;
    [[nodiscard]] Bytes serialize() const;
    /// Reads the header of a PDU into `out`, leaving its payload untouched
    /// (the payload is pdu.subspan(2)); false on truncation or a length
    /// mismatch.
    static bool parse_header(BytesView pdu, AdvPdu& out) noexcept;
    /// Parses a PDU into `out`, reusing its payload buffer; false (and `out`
    /// unspecified) on truncation or a length mismatch.
    static bool parse(BytesView pdu, AdvPdu& out) noexcept;
    /// By-value form of the parser above; nullopt where it returns false.
    static std::optional<AdvPdu> parse(BytesView pdu) noexcept {
        AdvPdu out;
        if (!parse(pdu, out)) return std::nullopt;
        return out;
    }
};

}  // namespace ble::link
