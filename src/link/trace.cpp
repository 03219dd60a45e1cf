#include "link/trace.hpp"

#include <cstdio>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "phy/access_address.hpp"
#include "phy/frame.hpp"

namespace ble::link {

namespace {
const char* adv_type_name(AdvPduType type) {
    switch (type) {
        case AdvPduType::kAdvInd: return "ADV_IND";
        case AdvPduType::kAdvDirectInd: return "ADV_DIRECT_IND";
        case AdvPduType::kAdvNonconnInd: return "ADV_NONCONN_IND";
        case AdvPduType::kScanReq: return "SCAN_REQ";
        case AdvPduType::kScanRsp: return "SCAN_RSP";
        case AdvPduType::kConnectReq: return "CONNECT_REQ";
        case AdvPduType::kAdvScanInd: return "ADV_SCAN_IND";
    }
    return "ADV_UNKNOWN";
}

/// CONNECT_REQ carries every parameter the attacker needs (paper Table II) —
/// surface the ones an analyst greps for when validating a capture.
void append_connect_req_detail(std::string& out, const AdvPdu& header, BytesView payload) {
    ConnectReqPdu req;
    if (!ConnectReqPdu::parse(header, payload, req)) return;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " AA=%08x hop=%u inc=%u win=%u+%u", req.params.access_address,
                  req.params.hop_interval, req.params.hop_increment, req.params.win_size,
                  req.params.win_offset);
    out += buf;
}

/// Procedure payload detail for the control PDUs the attack scenarios use:
/// the paper's injections hinge on instants (Fig. 2/7), so name them.
void append_control_detail(std::string& out, const ControlPdu& control) {
    switch (control.opcode) {
        case ControlOpcode::kConnectionUpdateInd:
            if (const auto update = ConnectionUpdateInd::parse(control)) {
                out += " interval=";
                json::append_u64(out, update->interval);
                out += " instant=";
                json::append_u64(out, update->instant);
            }
            break;
        case ControlOpcode::kChannelMapInd:
            if (const auto map = ChannelMapInd::parse(control)) {
                out += " instant=";
                json::append_u64(out, map->instant);
            }
            break;
        case ControlOpcode::kTerminateInd:
            if (const auto term = TerminateInd::parse(control)) {
                out += " error=0x";
                append_hex(out, BytesView(&term->error_code, 1));
            }
            break;
        default: break;
    }
}
}  // namespace

void append_frame_description(std::string& out, BytesView bytes) {
    const auto raw = phy::split_frame(bytes);
    if (!raw) {
        out += "malformed (" + std::to_string(bytes.size()) + "B)";
        return;
    }

    if (raw->access_address == phy::kAdvertisingAccessAddress) {
        // Like data PDUs below, read in place: the payload stays a view.
        AdvPdu header;
        if (!AdvPdu::parse_header(raw->pdu, header)) {
            out += "ADV malformed";
            return;
        }
        const BytesView payload = raw->pdu.subspan(2);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s (%zuB)%s", adv_type_name(header.type),
                      payload.size(), header.ch_sel ? " ChSel" : "");
        out += buf;
        if (header.type == AdvPduType::kConnectReq) {
            append_connect_req_detail(out, header, payload);
        }
        return;
    }

    // Data PDUs are most of every trace: the header is read in place and
    // the payload stays a view into the frame.
    DataPdu header;
    if (!DataPdu::parse_header(raw->pdu, header)) {
        out += "DATA malformed";
        return;
    }
    const BytesView payload = raw->pdu.subspan(2);
    out += header.sn ? "DATA sn=1" : "DATA sn=0";
    out += header.nesn ? " nesn=1" : " nesn=0";
    if (header.md) out += " MD";
    if (header.is_control()) {
        if (const auto control = ControlPdu::parse(payload)) {
            out += ' ';
            out += control_opcode_name(control->opcode);
            append_control_detail(out, *control);
        } else {
            out += " LL control (empty)";
        }
    } else if (header.llid == Llid::kDataContinuation && payload.empty()) {
        out += " empty PDU";
    } else {
        out += header.llid == Llid::kDataStart ? " L2CAP start " : " L2CAP cont ";
        json::append_u64(out, payload.size());
        out += 'B';
    }
}

}  // namespace ble::link
