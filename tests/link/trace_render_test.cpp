// JsonlTraceSink against the renderer it had before dBm figures became exact
// integer tenths and frame descriptions were appended in place, kept below
// verbatim as the reference: json helpers over std::to_chars (fixed
// precision for dBm), and a describe_frame that returned a fresh string.
// Every trace byte, and so every artifact digest, depends on the two agreeing
// for any event the bus can carry — hostile names, extreme times and ids, dBm
// ties and non-finite values, malformed frames.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "link/trace.hpp"
#include "obs/sinks.hpp"
#include "phy/access_address.hpp"
#include "phy/frame.hpp"

namespace ble {
namespace {

namespace reference {

// ---- common/json and common/hex writers -----------------------------------

namespace json {

void append_escaped(std::string& out, std::string_view s) {
    const char* p = s.data();
    const char* const end = p + s.size();
    while (p != end) {
        const char* const run = p;
        while (p != end && static_cast<unsigned char>(*p) >= 0x20 &&
               static_cast<unsigned char>(*p) < 0x7f && *p != '"' && *p != '\\') {
            ++p;
        }
        out.append(run, static_cast<std::size_t>(p - run));
        if (p == end) break;
        const auto u = static_cast<unsigned char>(*p++);
        switch (u) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default: {
                // Remaining control bytes, DEL and non-ASCII: \u00xx reads
                // each byte as Latin-1 and always round-trips.
                constexpr char kHex[] = "0123456789abcdef";
                const char escaped[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xF]};
                out.append(escaped, sizeof escaped);
            }
        }
    }
}

void append_int(std::string& out, long long value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void append_fixed1(std::string& out, double value) {
    // Wide enough for DBL_MAX: 309 integer digits, sign, ".d".
    char buf[320];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed, 1).ptr);
}

void append_key(std::string& out, std::string_view key) {
    out += ",\"";
    out += key;
    out += "\":";
}

void append_int(std::string& out, std::string_view key, long long value) {
    append_key(out, key);
    append_int(out, value);
}

void append_fixed1(std::string& out, std::string_view key, double value) {
    append_key(out, key);
    append_fixed1(out, value);
}

void append_bool(std::string& out, std::string_view key, bool value) {
    append_key(out, key);
    out += value ? "true" : "false";
}

void append_str(std::string& out, std::string_view key, std::string_view value) {
    append_key(out, key);
    out += '"';
    append_escaped(out, value);
    out += '"';
}

}  // namespace json

void append_hex(std::string& out, BytesView data) {
    constexpr char kDigits[] = "0123456789abcdef";
    std::size_t at = out.size();
    out.resize(at + 2 * data.size());
    for (auto b : data) {
        out[at++] = kDigits[b >> 4];
        out[at++] = kDigits[b & 0xF];
    }
}

// ---- link/trace.cpp --------------------------------------------------------

using link::AdvPdu;
using link::AdvPduType;
using link::ChannelMapInd;
using link::ConnectionUpdateInd;
using link::ConnectReqPdu;
using link::ControlOpcode;
using link::ControlPdu;
using link::DataPdu;
using link::Llid;
using link::TerminateInd;

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
std::string connect_req_detail(const AdvPdu& pdu) {
    const auto req = ConnectReqPdu::parse(pdu);
    if (!req) return {};
    char buf[96];
    std::snprintf(buf, sizeof(buf), " AA=%08x hop=%u inc=%u win=%u+%u", req->params.access_address,
                  req->params.hop_interval, req->params.hop_increment, req->params.win_size,
                  req->params.win_offset);
    return buf;
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

std::string describe_frame(BytesView bytes) {
    const auto raw = phy::split_frame(bytes);
    if (!raw) return "malformed (" + std::to_string(bytes.size()) + "B)";

    if (raw->access_address == phy::kAdvertisingAccessAddress) {
        const auto pdu = AdvPdu::parse(raw->pdu);
        if (!pdu) return "ADV malformed";
        std::string extra;
        if (pdu->type == AdvPduType::kConnectReq) extra = connect_req_detail(*pdu);
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s (%zuB)%s%s", adv_type_name(pdu->type),
                      pdu->payload.size(), pdu->ch_sel ? " ChSel" : "", extra.c_str());
        return buf;
    }

    // Data PDUs are most of every trace: append straight into the line.
    const auto pdu = DataPdu::parse(raw->pdu);
    if (!pdu) return "DATA malformed";
    std::string out;
    out.reserve(64);
    out += pdu->sn ? "DATA sn=1" : "DATA sn=0";
    out += pdu->nesn ? " nesn=1" : " nesn=0";
    if (pdu->md) out += " MD";
    if (pdu->is_control()) {
        if (const auto control = ControlPdu::parse(pdu->payload)) {
            out += ' ';
            out += control_opcode_name(control->opcode);
            append_control_detail(out, *control);
        } else {
            out += " LL control (empty)";
        }
    } else if (pdu->is_empty()) {
        out += " empty PDU";
    } else {
        out += pdu->llid == Llid::kDataStart ? " L2CAP start " : " L2CAP cont ";
        json::append_u64(out, pdu->payload.size());
        out += 'B';
    }
    return out;
}

// ---- obs/sinks.cpp ---------------------------------------------------------

using namespace obs;  // NOLINT: the event types, as in the sink's own namespace
using FrameDescriber = std::function<std::string(BytesView)>;

// dBm figures serialize at one decimal (append_fixed1) — the exact
// quantization the capture subsystem's phdr uses, so offline trace-to-pcap
// rendering is bit-identical to the live sink (obs::capture::quantize_dbm
// round-trips this form).
using json::append_bool;
using json::append_fixed1;
using json::append_int;
using json::append_str;

struct JsonVisitor {
    std::string& out;
    const FrameDescriber& describe;

    void operator()(const TxStart& e) const {
        append_int(out, "tx_id", static_cast<long long>(e.tx_id));
        append_int(out, "ch", e.channel);
        append_str(out, "sender", e.sender);
        append_int(out, "dur_ns", e.duration);
        append_fixed1(out, "tx_dbm", e.tx_power_dbm);
        json::append_key(out, "hex");
        out += '"';
        append_hex(out, e.bytes);
        out += '"';
        if (describe) append_str(out, "desc", describe(e.bytes));
    }
    void operator()(const RxDecision& e) const {
        append_int(out, "tx_id", static_cast<long long>(e.tx_id));
        append_int(out, "ch", e.channel);
        append_str(out, "receiver", e.receiver);
        append_str(out, "verdict", rx_verdict_name(e.verdict));
        append_fixed1(out, "rssi_dbm", e.rssi_dbm);
        append_fixed1(out, "noise_dbm", e.noise_dbm);
        append_int(out, "corrupted_bytes", e.corrupted_bytes);
        append_int(out, "sync_bit_errors", e.sync_bit_errors);
    }
    void operator()(const ConnEvent& e) const {
        const char* kind = e.kind == ConnEvent::Kind::kOpened       ? "opened"
                           : e.kind == ConnEvent::Kind::kEventClosed ? "event"
                                                                     : "closed";
        append_str(out, "kind", kind);
        append_str(out, "device", e.device);
        append_str(out, "role", e.role == 0 ? "master" : "slave");
        append_int(out, "event_counter", e.event_counter);
        append_int(out, "ch", e.channel);
        if (e.kind == ConnEvent::Kind::kEventClosed) {
            append_bool(out, "anchor", e.anchor_observed);
            append_int(out, "rx", e.pdus_rx);
            append_int(out, "tx", e.pdus_tx);
            append_int(out, "crc_errors", e.crc_errors);
        }
        if (e.kind == ConnEvent::Kind::kClosed) append_str(out, "reason", e.reason);
    }
    void operator()(const WindowWiden& e) const {
        append_str(out, "device", e.device);
        append_int(out, "event_counter", e.event_counter);
        append_int(out, "ch", e.channel);
        append_int(out, "widening_ns", e.widening);
        append_int(out, "window_ns", e.window);
        append_bool(out, "missed", e.missed);
    }
    void operator()(const InjectionAttempt& e) const {
        append_int(out, "attempt", e.attempt);
        append_int(out, "event_counter", e.event_counter);
        append_int(out, "ch", e.channel);
        append_bool(out, "heuristic_success", e.heuristic_success);
        if (e.ground_truth_known) append_bool(out, "accepted", e.accepted_by_slave);
    }
    void operator()(const IdsAlert& e) const {
        append_int(out, "type", e.type);
        append_str(out, "name", e.type_name);
        append_int(out, "event_counter", e.event_counter);
        append_str(out, "detail", e.detail);
    }
    void operator()(const TrialPhase& e) const {
        append_int(out, "seed", static_cast<long long>(e.seed));
        append_str(out, "phase", e.phase);
        if (!e.detail.empty()) append_str(out, "detail", e.detail);
    }
};

TimePoint event_time(const Event& event) noexcept {
    return std::visit([](const auto& e) { return e.time; }, event);
}

/// Appends one event's line (without the newline) to `out`.
void append_jsonl(std::string& out, const Event& event, const FrameDescriber& describe) {
    out += "{\"e\":\"";
    out += event_kind_name(event);
    out += '"';
    append_int(out, "t_ns", event_time(event));
    std::visit(JsonVisitor{out, describe}, event);
    out += '}';
}

}  // namespace reference

// ---- seeded inputs -----------------------------------------------------------

/// Names of every shape: mostly short, sometimes over 64 KiB; printable runs
/// broken by quotes, backslashes, control bytes, DEL and non-ASCII bytes.
std::string random_name(Rng& rng) {
    std::size_t length = rng.next_below(24);
    if (rng.chance(0.005)) length = 1000 + rng.next_below(80'000);
    const bool printable = rng.chance(0.5);
    std::string s(length, ' ');
    for (char& c : s) {
        const bool any = !printable || rng.chance(0.05);
        c = static_cast<char>(any ? rng.next_below(256) : 0x20 + rng.next_below(0x5f));
    }
    return s;
}

/// Near-tie, signed-zero, non-finite and huge values as well as every bit
/// pattern: "%.1f" rounding decides the bytes of every dBm field.
double random_dbm(Rng& rng) {
    constexpr double kSpecial[] = {0.0,
                                   -0.0,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   -std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(),
                                   1e300,
                                   -1e300,
                                   std::numeric_limits<double>::max(),
                                   std::numeric_limits<double>::denorm_min(),
                                   72057594037927936.0,  // 2^56
                                   -72057594037927928.0,  // the next double toward 0
                                   -127.0,
                                   -100.0};
    switch (rng.next_below(5)) {
        case 0:
        case 1: {
            // k/20 on [-200, 200] dBm: every one-decimal tie, one ulp either side.
            const double tie = (static_cast<double>(rng.next_below(8001)) - 4000.0) / 20.0;
            const int side = static_cast<int>(rng.next_below(3));
            return side == 0 ? tie : std::nextafter(tie, side == 1 ? -INFINITY : INFINITY);
        }
        case 2: return kSpecial[rng.next_below(std::size(kSpecial))];
        case 3: return std::bit_cast<double>(rng.next_u64());
        default: return rng.uniform(-200.0, 200.0);
    }
}

/// Integers at and near both ends of their range, and of every width.
std::uint64_t random_bits(Rng& rng) {
    constexpr std::uint64_t kEdges[] = {0,
                                        1,
                                        ~std::uint64_t{0},
                                        std::uint64_t{1} << 63,
                                        (std::uint64_t{1} << 63) - 1,
                                        (std::uint64_t{1} << 63) + 1,
                                        9,
                                        10,
                                        99,
                                        100};
    if (rng.chance(0.2)) return kEdges[rng.next_below(std::size(kEdges))];
    return rng.next_u64() >> rng.next_below(64);
}
long long random_int(Rng& rng) { return static_cast<long long>(random_bits(rng)); }

/// Frames of 0-300 B: raw garbage, advertising PDUs of every type (CONNECT_REQ
/// at its real length most of the time), data PDUs of every LLID with
/// control PDUs of every opcode, then truncated or with a byte flipped now
/// and then.
Bytes random_frame(Rng& rng) {
    const auto byte = [&rng] { return static_cast<std::uint8_t>(rng.next_below(256)); };
    if (rng.chance(0.1)) {
        Bytes garbage(rng.next_below(301));
        for (auto& b : garbage) b = byte();
        return garbage;
    }
    Bytes pdu{byte()};
    std::size_t length = rng.next_below(256);
    const bool adv = rng.chance(0.3);
    if (adv) {
        length = rng.next_below(38);
        if ((pdu[0] & 0x0F) == static_cast<std::uint8_t>(link::AdvPduType::kConnectReq) &&
            rng.chance(0.7)) {
            length = 34;
        } else if (rng.chance(0.05)) {
            length += 64;  // the ADV length is 6 bits: the frame splits, the PDU does not parse
        }
    } else if (rng.chance(0.25)) {
        length = 0;  // empty PDUs, or an LL control PDU without an opcode
    } else if (rng.chance(0.5)) {
        pdu[0] |= static_cast<std::uint8_t>(link::Llid::kControl);
        const auto opcode = static_cast<std::uint8_t>(rng.next_below(0x22));
        constexpr std::size_t kExactCtrData[] = {11, 7, 1};  // update, map, terminate
        length = rng.next_below(24);
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

/// Storage the next event's views point into.
struct EventInputs {
    std::string first;
    std::string second;
    Bytes frame;
};

obs::Event random_event(Rng& rng, EventInputs& in) {
    in.first = random_name(rng);
    in.second = random_name(rng);
    const auto time = random_int(rng);
    const auto u8 = [&rng] { return static_cast<std::uint8_t>(rng.next_below(256)); };
    const auto u16 = [&rng] { return static_cast<std::uint16_t>(rng.next_below(65536)); };
    const auto i32 = [&rng] { return static_cast<int>(static_cast<std::int32_t>(rng.next_u64())); };
    switch (rng.next_below(7)) {
        case 0: {
            in.frame = random_frame(rng);
            return obs::TxStart{time,      random_bits(rng), u8(), in.first,
                                in.frame, random_int(rng), random_dbm(rng)};
        }
        case 1: {
            // Every verdict, plus a value outside the enum.
            const auto verdict = static_cast<obs::RxVerdict>(rng.next_below(4));
            return obs::RxDecision{time,    random_bits(rng), u8(),    in.first, verdict,
                                   random_dbm(rng), random_dbm(rng), i32(), i32()};
        }
        case 2: {
            obs::ConnEvent e;
            e.kind = static_cast<obs::ConnEvent::Kind>(rng.next_below(3));
            e.time = time;
            e.device = in.first;
            e.role = u8() & 1 ? 0 : u8();
            e.event_counter = u16();
            e.channel = u8();
            e.anchor_observed = rng.chance(0.5);
            e.pdus_rx = i32();
            e.pdus_tx = i32();
            e.crc_errors = i32();
            e.reason = in.second;
            return e;
        }
        case 3:
            return obs::WindowWiden{time,           in.first,        u16(), u8(),
                                    random_int(rng), random_int(rng), rng.chance(0.5)};
        case 4: {
            obs::InjectionAttempt e;
            e.time = time;
            e.attempt = i32();
            e.event_counter = u16();
            e.channel = u8();
            e.heuristic_success = rng.chance(0.5);
            e.ground_truth_known = rng.chance(0.5);
            e.accepted_by_slave = rng.chance(0.5);
            return e;
        }
        case 5: return obs::IdsAlert{time, u8(), in.first, u16(), in.second};
        default: {
            if (rng.chance(0.3)) in.second.clear();  // no "detail" member
            return obs::TrialPhase{time, random_bits(rng), in.first, in.second};
        }
    }
}

TEST(TraceRenderTest, MatchesThePreChangeRenderer) {
    constexpr int kEvents = 100'000;
    constexpr int kBatch = 500;  // events between take() / clear() of the sinks
    Rng rng(0x7ace'0e4d);
    EventInputs inputs;
    obs::JsonlTraceSink plain;
    obs::JsonlTraceSink described(link::append_frame_description);
    const reference::FrameDescriber no_describer;
    const reference::FrameDescriber reference_describer = reference::describe_frame;
    std::string expected_plain;
    std::string expected_described;
    int kinds[std::variant_size_v<obs::Event>] = {};
    // Each family must turn up, or the generator has stopped covering it.
    const char* const kFamilies[] = {
        "\"desc\":\"malformed (", "ADV malformed", "DATA malformed", "ADV_UNKNOWN (",
        "CONNECT_REQ (34B)", " AA=", "L2CAP start", "L2CAP cont", "empty PDU",
        "LL control (empty)", "LL_TERMINATE_IND error=0x", "_dbm\":nan", "_dbm\":-nan",
        "_dbm\":inf", "_dbm\":-inf", "_dbm\":-0.0,", "_dbm\":10000000000000000525",
        "\"t_ns\":-9223372036854775808", "\"tx_id\":-1,", "\"seed\":9223372036854775807",
        "\\u007f", "\\u00ff", "\\\"", "\\\\", "\"verdict\":\"?\""};
    int family_hits[std::size(kFamilies)] = {};
    int long_names = 0;
    int mismatches = 0;
    const auto check = [&mismatches](std::string_view got, std::string_view expected, int i) {
        if (got != expected && ++mismatches <= 10) {
            ADD_FAILURE() << "event " << i << ":\n  got      " << got.substr(0, 400)
                          << "\n  expected " << expected.substr(0, 400);
        }
    };
    for (int i = 0; i < kEvents; ++i) {
        const obs::Event event = random_event(rng, inputs);
        ++kinds[event.index()];
        long_names += inputs.first.size() > 65536 ? 1 : 0;
        if ((i + 1) % kBatch == kBatch / 2) {
            // A header set mid-trace goes first and shifts the lines behind it.
            const std::string header = "{\"e\":\"meta\",\"i\":" + std::to_string(i) + "}";
            described.set_header(header);
            expected_described.insert(0, header + '\n');
        }
        const std::size_t plain_at = expected_plain.size();
        const std::size_t described_at = expected_described.size();
        reference::append_jsonl(expected_plain, event, no_describer);
        expected_plain += '\n';
        reference::append_jsonl(expected_described, event, reference_describer);
        expected_described += '\n';

        plain.on_event(event);
        described.on_event(event);
        check(plain.str().substr(plain_at), std::string_view(expected_plain).substr(plain_at), i);
        check(described.str().substr(described_at),
              std::string_view(expected_described).substr(described_at), i);
        const std::string_view line = std::string_view(expected_described).substr(described_at);
        for (std::size_t f = 0; f < std::size(kFamilies) && line.size() < 4096; ++f) {
            family_hits[f] += line.find(kFamilies[f]) != std::string_view::npos;
        }

        if ((i + 1) % kBatch == 0) {
            // Alternate handing the buffer over and reusing it in place.
            if ((i / kBatch) % 2 == 0) {
                check(plain.take(), expected_plain, i);
                check(described.take(), expected_described, i);
            } else {
                plain.clear();
                described.clear();
            }
            EXPECT_TRUE(plain.str().empty());
            expected_plain.clear();
            expected_described.clear();
        }
    }
    EXPECT_EQ(mismatches, 0);
    for (const int n : kinds) EXPECT_GT(n, kEvents / 10);
    for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
        EXPECT_GT(family_hits[f], 0) << "never generated: " << kFamilies[f];
    }
    EXPECT_GT(long_names, 0);
}

}  // namespace
}  // namespace ble
