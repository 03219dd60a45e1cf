// describe_frame against its snprintf-built ancestor, kept below as the
// reference: every TxStart line of a trace carries this description, so the
// appending rewrite must produce the same bytes for every frame the medium
// can carry — well-formed, truncated or corrupted.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "link/trace.hpp"
#include "phy/access_address.hpp"
#include "phy/frame.hpp"

namespace ble::link {
namespace {

const char* reference_adv_type_name(AdvPduType type) {
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

std::string reference_connect_req_detail(const AdvPdu& pdu) {
    const auto req = ConnectReqPdu::parse(pdu);
    if (!req) return {};
    char buf[96];
    std::snprintf(buf, sizeof(buf), " AA=%08x hop=%u inc=%u win=%u+%u", req->params.access_address,
                  req->params.hop_interval, req->params.hop_increment, req->params.win_size,
                  req->params.win_offset);
    return buf;
}

std::string reference_control_detail(const ControlPdu& control) {
    char buf[96];
    switch (control.opcode) {
        case ControlOpcode::kConnectionUpdateInd:
            if (const auto update = ConnectionUpdateInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " interval=%u instant=%u", update->interval,
                              update->instant);
                return buf;
            }
            break;
        case ControlOpcode::kChannelMapInd:
            if (const auto map = ChannelMapInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " instant=%u", map->instant);
                return buf;
            }
            break;
        case ControlOpcode::kTerminateInd:
            if (const auto term = TerminateInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " error=0x%02x", term->error_code);
                return buf;
            }
            break;
        default: break;
    }
    return {};
}

std::string reference_describe_frame(BytesView bytes) {
    const auto raw = phy::split_frame(bytes);
    if (!raw) return "malformed (" + std::to_string(bytes.size()) + "B)";

    char buf[160];
    if (raw->access_address == phy::kAdvertisingAccessAddress) {
        const auto pdu = AdvPdu::parse(raw->pdu);
        if (!pdu) return "ADV malformed";
        std::string extra;
        if (pdu->type == AdvPduType::kConnectReq) extra = reference_connect_req_detail(*pdu);
        std::snprintf(buf, sizeof(buf), "%s (%zuB)%s%s", reference_adv_type_name(pdu->type),
                      pdu->payload.size(), pdu->ch_sel ? " ChSel" : "", extra.c_str());
        return buf;
    }

    const auto pdu = DataPdu::parse(raw->pdu);
    if (!pdu) return "DATA malformed";
    std::string detail;
    if (pdu->is_control()) {
        if (const auto control = ControlPdu::parse(pdu->payload)) {
            detail = control_opcode_name(control->opcode);
            detail += reference_control_detail(*control);
        } else {
            detail = "LL control (empty)";
        }
    } else if (pdu->is_empty()) {
        detail = "empty PDU";
    } else {
        detail = "L2CAP ";
        detail += pdu->llid == Llid::kDataStart ? "start" : "cont";
        detail += ' ';
        detail += std::to_string(pdu->payload.size());
        detail += 'B';
    }
    std::snprintf(buf, sizeof(buf), "DATA sn=%d nesn=%d%s %s", pdu->sn ? 1 : 0,
                  pdu->nesn ? 1 : 0, pdu->md ? " MD" : "", detail.c_str());
    return buf;
}

/// A random frame: advertising or data, header bits drawn whole (every ADV
/// type, LLID, SN/NESN/MD, ChSel), control PDUs of every opcode with their
/// exact CtrData size half the time, then truncated or with a byte flipped
/// now and then.
Bytes random_frame(Rng& rng) {
    const auto byte = [&rng] { return static_cast<std::uint8_t>(rng.next_below(256)); };
    Bytes pdu{byte()};
    std::size_t length = rng.next_below(40);
    const bool adv = rng.chance(0.3);
    if (adv) {
        if ((pdu[0] & 0x0F) == static_cast<std::uint8_t>(AdvPduType::kConnectReq) &&
            rng.chance(0.7)) {
            length = 34;
        } else if (rng.chance(0.05)) {
            length += 64;  // the ADV length is 6 bits: the frame splits, the PDU does not parse
        }
    } else if (rng.chance(0.25)) {
        length = 0;  // empty PDUs, or an LL control PDU without an opcode
    } else if (rng.chance(0.5)) {
        pdu[0] |= static_cast<std::uint8_t>(Llid::kControl);
        const auto opcode = static_cast<std::uint8_t>(rng.next_below(0x22));
        constexpr std::size_t kExactCtrData[] = {11, 7, 1};  // update, map, terminate
        if (opcode < 3 && rng.chance(0.5)) length = 1 + kExactCtrData[opcode];
        pdu.push_back(static_cast<std::uint8_t>(length));
        if (length > 0) pdu.push_back(opcode);
    }
    if (pdu.size() == 1) pdu.push_back(static_cast<std::uint8_t>(length));
    while (pdu.size() < length + 2) pdu.push_back(byte());
    const std::uint32_t aa =
        adv ? phy::kAdvertisingAccessAddress : static_cast<std::uint32_t>(rng.next_u64());
    Bytes frame =
        phy::make_air_frame(aa, pdu, static_cast<std::uint32_t>(rng.next_below(1u << 24))).bytes;
    if (rng.chance(0.1)) frame.resize(rng.next_below(frame.size() + 1));
    if (rng.chance(0.1) && !frame.empty()) frame[rng.next_below(frame.size())] ^= byte();
    return frame;
}

TEST(DescribeFrameTest, MatchesTheSnprintfReference) {
    Rng rng(0xdec0'de00);
    // Each family must turn up, or the generator has stopped covering it.
    const char* const kFamilies[] = {
        "ADV_IND (",    "ADV_DIRECT_IND", "ADV_NONCONN_IND", "SCAN_REQ",    "SCAN_RSP",
        "CONNECT_REQ",  " AA=",           "ADV_SCAN_IND",    "ADV_UNKNOWN", " ChSel",
        "ADV malformed", "malformed (",   "DATA malformed",  "empty PDU",   "L2CAP start",
        "L2CAP cont",   " MD ",           "sn=1 nesn=1",     "LL control (empty)",
        "LL_UNKNOWN",   "LL_CONNECTION_UPDATE_IND interval=", "LL_CHANNEL_MAP_IND instant=",
        "LL_TERMINATE_IND error=0x",      "LL_CLOCK_ACCURACY_RSP"};
    int family_hits[std::size(kFamilies)] = {};
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        const Bytes frame = random_frame(rng);
        const std::string expected = reference_describe_frame(frame);
        const std::string got = describe_frame(frame);
        if (got != expected && ++mismatches <= 10) {
            ADD_FAILURE() << "case " << i << ": \"" << got << "\" != \"" << expected << '"';
        }
        for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
            family_hits[f] += expected.find(kFamilies[f]) != std::string::npos;
        }
    }
    EXPECT_EQ(mismatches, 0);
    for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
        EXPECT_GT(family_hits[f], 0) << "never generated: " << kFamilies[f];
    }
    // Every named control opcode, each in a well-formed frame.
    for (int opcode = 0; opcode < 0x22; ++opcode) {
        DataPdu control;
        control.llid = Llid::kControl;
        control.payload = {static_cast<std::uint8_t>(opcode)};
        const Bytes frame = phy::make_air_frame(0xAF9A9CD4, control.serialize(), 0x123456).bytes;
        EXPECT_EQ(describe_frame(frame), reference_describe_frame(frame)) << opcode;
    }
}

}  // namespace
}  // namespace ble::link
