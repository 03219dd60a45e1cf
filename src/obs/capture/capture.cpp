#include "obs/capture/capture.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/hex.hpp"
#include "common/json.hpp"

namespace ble::obs::capture {

namespace {

// PCAP container constants (nanosecond-resolution magic; we write the file
// little-endian, the host byte order of every platform we run on).
constexpr std::uint32_t kPcapMagicNs = 0xA1B23C4D;
constexpr std::uint16_t kPcapVersionMajor = 2;
constexpr std::uint16_t kPcapVersionMinor = 4;
constexpr std::uint32_t kPcapSnaplen = 0x40000;
/// DLT_BLUETOOTH_LE_LL_WITH_PHDR.
constexpr std::uint32_t kLinktypeBleLlWithPhdr = 256;

// LE_LL_WITH_PHDR flag bits (the subset we produce).
constexpr std::uint16_t kFlagDewhitened = 0x0001;
constexpr std::uint16_t kFlagSignalValid = 0x0002;
constexpr std::uint16_t kFlagNoiseValid = 0x0004;
constexpr std::uint16_t kFlagRefAaValid = 0x0010;
constexpr std::uint16_t kFlagOffensesValid = 0x0020;
constexpr std::uint16_t kFlagCrcChecked = 0x0400;
constexpr std::uint16_t kFlagCrcValid = 0x0800;

constexpr std::size_t kPhdrSize = 10;

/// Device-vantage pending horizon: a parked frame whose verdict never arrived
/// (receiver below sensitivity, or retuned away) is dropped once the stream
/// has moved this far past its start.  Far beyond any frame airtime (~2 ms),
/// and a pure function of event times, so pruning is deterministic.
constexpr Duration kPendingHorizonNs = 100'000'000;  // 100 ms

void put_u16le(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32le(std::string& out, std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

struct ByteCursor {
    std::string_view data;
    std::size_t pos = 0;
    bool failed = false;

    [[nodiscard]] std::size_t remaining() const { return data.size() - pos; }
    std::uint8_t u8() {
        if (remaining() < 1) {
            failed = true;
            return 0;
        }
        return static_cast<std::uint8_t>(data[pos++]);
    }
    std::uint16_t u16le() {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
    }
    std::uint32_t u32le() {
        const std::uint32_t lo = u16le();
        return lo | (static_cast<std::uint32_t>(u16le()) << 16);
    }
};

/// Parses the 10-byte pseudo-header + frame body of one packet payload.
bool parse_phdr_packet(std::string_view payload, CaptureRecord& record,
                       std::string* error) {
    if (payload.size() < kPhdrSize) {
        *error = "packet shorter than the pseudo-header";
        return false;
    }
    ByteCursor c{payload};
    const std::uint8_t rf = c.u8();
    record.channel = logical_channel_from_rf(rf);
    record.signal_dbm = static_cast<std::int8_t>(c.u8());
    record.noise_dbm = static_cast<std::int8_t>(c.u8());
    record.aa_offenses = c.u8();
    (void)c.u32le();  // reference AA: redundant with the frame's own bytes
    const std::uint16_t flags = c.u16le();
    record.signal_valid = (flags & kFlagSignalValid) != 0;
    record.noise_valid = (flags & kFlagNoiseValid) != 0;
    record.offenses_valid = (flags & kFlagOffensesValid) != 0;
    record.crc_checked = (flags & kFlagCrcChecked) != 0;
    record.crc_valid = (flags & kFlagCrcValid) != 0;
    const auto* body = reinterpret_cast<const std::uint8_t*>(payload.data());
    record.bytes.assign(body + kPhdrSize, body + payload.size());
    // The writer derives the reference AA and the other flag bits from the
    // record; a pseudo-header it would not have written is not ours.
    std::string expected;
    append_phdr(expected, record, record.bytes);
    if (payload.substr(0, kPhdrSize) != expected) {
        *error = "pseudo-header the writer never emits (reference AA or flags)";
        return false;
    }
    return true;
}

/// Makes `out` a pcap image with no packets yet: the 24-byte file header.
void start_pcap(std::string& out) {
    out.clear();
    put_u32le(out, kPcapMagicNs);
    put_u16le(out, kPcapVersionMajor);
    put_u16le(out, kPcapVersionMinor);
    put_u32le(out, 0);  // thiszone
    put_u32le(out, 0);  // sigfigs
    put_u32le(out, kPcapSnaplen);
    put_u32le(out, kLinktypeBleLlWithPhdr);
}

/// Appends one packet (record header, pseudo-header, frame) to a pcap image.
/// The one packet writer: both vantages of CaptureBuilder, live or offline,
/// and pcap_bytes() write through it.
void append_packet(std::string& out, const PacketInfo& info, BytesView frame) {
    const auto t = static_cast<std::uint64_t>(info.time < 0 ? 0 : info.time);
    put_u32le(out, static_cast<std::uint32_t>(t / 1'000'000'000ull));
    put_u32le(out, static_cast<std::uint32_t>(t % 1'000'000'000ull));
    const auto len = static_cast<std::uint32_t>(kPhdrSize + frame.size());
    put_u32le(out, len);  // incl_len
    put_u32le(out, len);  // orig_len
    append_phdr(out, info, frame);
    out.append(reinterpret_cast<const char*>(frame.data()), frame.size());
}

RxVerdict verdict_from_name(std::string_view name, bool* ok) {
    *ok = true;
    if (name == "delivered") return RxVerdict::kDelivered;
    if (name == "corrupted") return RxVerdict::kDeliveredCorrupted;
    if (name == "lost-sync") return RxVerdict::kLostSync;
    *ok = false;
    return RxVerdict::kLostSync;
}

}  // namespace

const char* vantage_kind_name(VantageKind kind) noexcept {
    switch (kind) {
        case VantageKind::kOmniscient: return "omniscient";
        case VantageKind::kDevice: return "device";
    }
    return "?";
}

std::uint8_t rf_channel_from_logical(std::uint8_t channel) noexcept {
    // Spec Vol 6 Part B §1.4.1: advertising channels 37/38/39 sit at RF
    // indexes 0/12/39; data channels fill the gaps in order.
    if (channel == 37) return 0;
    if (channel == 38) return 12;
    if (channel == 39) return 39;
    if (channel <= 10) return static_cast<std::uint8_t>(channel + 1);
    if (channel <= 36) return static_cast<std::uint8_t>(channel + 2);
    return channel;  // out of BLE range: pass through
}

std::uint8_t logical_channel_from_rf(std::uint8_t rf) noexcept {
    if (rf == 0) return 37;
    if (rf == 12) return 38;
    if (rf == 39) return 39;
    if (rf <= 11) return static_cast<std::uint8_t>(rf - 1);
    if (rf <= 38) return static_cast<std::uint8_t>(rf - 2);
    return rf;
}

std::int8_t quantize_dbm(double dbm) noexcept {
    // A trace stores dBm as the "%.1f" text of the exact tenths q, which
    // strtod reads back as the double nearest ±q/10: the IEEE quotient
    // ±q / 10.0 while q < 2^53, and far outside int8 (clamped) above.  NaN,
    // ±inf and |x| >= 2^56 print as themselves and reach lround unchanged.
    std::uint64_t tenths = 0;
    const double quantized = json::exact_tenths(dbm, tenths)
                                 ? std::copysign(static_cast<double>(tenths) / 10.0, dbm)
                                 : dbm;
    long rounded = std::lround(quantized);
    if (rounded < -128) rounded = -128;
    if (rounded > 127) rounded = 127;
    return static_cast<std::int8_t>(rounded);
}

void append_phdr(std::string& out, const PacketInfo& info, BytesView frame) {
    out.push_back(static_cast<char>(rf_channel_from_logical(info.channel)));
    out.push_back(static_cast<char>(info.signal_dbm));
    out.push_back(static_cast<char>(info.noise_dbm));
    out.push_back(static_cast<char>(info.aa_offenses));
    std::uint32_t ref_aa = 0;
    bool ref_aa_valid = false;
    if (frame.size() >= 4) {
        ref_aa = static_cast<std::uint32_t>(frame[0]) |
                 (static_cast<std::uint32_t>(frame[1]) << 8) |
                 (static_cast<std::uint32_t>(frame[2]) << 16) |
                 (static_cast<std::uint32_t>(frame[3]) << 24);
        ref_aa_valid = true;
    }
    put_u32le(out, ref_aa);
    std::uint16_t flags = kFlagDewhitened;  // our frames are always unwhitened
    if (info.signal_valid) flags |= kFlagSignalValid;
    if (info.noise_valid) flags |= kFlagNoiseValid;
    if (ref_aa_valid) flags |= kFlagRefAaValid;
    if (info.offenses_valid) flags |= kFlagOffensesValid;
    if (info.crc_checked) flags |= kFlagCrcChecked;
    if (info.crc_valid) flags |= kFlagCrcValid;
    put_u16le(out, flags);
}

std::string pcap_bytes(const std::vector<CaptureRecord>& records) {
    std::string out;
    start_pcap(out);
    for (const CaptureRecord& record : records) append_packet(out, record, record.bytes);
    return out;
}

ParsedCapture parse_capture(std::string_view bytes) {
    ParsedCapture parsed;
    ByteCursor c{bytes};
    if (c.remaining() < 24) {
        parsed.error = "truncated pcap header";
        return parsed;
    }
    if (c.u32le() != kPcapMagicNs) {
        parsed.error = "not a nanosecond-resolution pcap (bad magic)";
        return parsed;
    }
    const std::uint16_t major = c.u16le();
    const std::uint16_t minor = c.u16le();
    if (major != kPcapVersionMajor || minor != kPcapVersionMinor) {
        parsed.error = "unsupported pcap version";
        return parsed;
    }
    const std::uint32_t thiszone = c.u32le();
    const std::uint32_t sigfigs = c.u32le();
    if (thiszone != 0 || sigfigs != 0 || c.u32le() != kPcapSnaplen) {
        parsed.error = "unexpected pcap header fields (thiszone, sigfigs or snaplen)";
        return parsed;
    }
    if (c.u32le() != kLinktypeBleLlWithPhdr) {
        parsed.error = "unexpected linktype (want 256, LE_LL_WITH_PHDR)";
        return parsed;
    }
    while (c.remaining() > 0) {
        if (c.remaining() < 16) {
            parsed.error = "truncated pcap record header";
            return parsed;
        }
        const std::uint64_t sec = c.u32le();
        const std::uint64_t nsec = c.u32le();
        const std::uint32_t incl = c.u32le();
        const std::uint32_t orig = c.u32le();
        if (incl != orig) {
            parsed.error = "truncated packet (incl_len != orig_len)";
            return parsed;
        }
        if (nsec >= 1'000'000'000ull) {
            parsed.error = "pcap timestamp nanoseconds out of range";
            return parsed;
        }
        if (c.remaining() < incl) {
            parsed.error = "truncated pcap packet body";
            return parsed;
        }
        CaptureRecord record;
        record.time = static_cast<TimePoint>(sec * 1'000'000'000ull + nsec);
        if (!parse_phdr_packet(bytes.substr(c.pos, incl), record, &parsed.error)) {
            return parsed;
        }
        c.pos += incl;
        parsed.records.push_back(std::move(record));
    }
    parsed.ok = true;
    return parsed;
}

CaptureBuilder::CaptureBuilder(VantagePoint vantage) : vantage_(std::move(vantage)) {
    start_pcap(pcap_);
}

std::vector<CaptureRecord> CaptureBuilder::records() const {
    return parse_capture(pcap_).records;
}

void CaptureBuilder::clear() {
    start_pcap(pcap_);
    parked_.clear();
    parked_head_ = 0;
    arena_.clear();
}

void CaptureBuilder::on_tx(TimePoint time, std::uint64_t tx_id, std::uint8_t channel,
                           double tx_power_dbm, BytesView bytes) {
    switch (vantage_.kind) {
        case VantageKind::kOmniscient: {
            // God view: the only power figure that exists without a receiver
            // is the sender's TX power; no CRC judgement either.
            PacketInfo info;
            info.time = time;
            info.channel = channel;
            info.signal_dbm = quantize_dbm(tx_power_dbm);
            info.signal_valid = true;
            append_packet(pcap_, info, bytes);
            return;
        }
        case VantageKind::kDevice: {
            // Park the frame until the named receiver's verdict arrives
            // (RxDecision fires at the frame's end).  Prune stale entries
            // first, skipping judged ones: parked_ is tx_id-ordered and tx
            // ids are monotonic in start time, so popping from the front is
            // exact.  The age is taken in unsigned arithmetic so that times
            // read from a trace file cannot overflow it.
            for (; parked_head_ < parked_.size(); ++parked_head_) {
                const Parked& oldest = parked_[parked_head_];
                const bool stale =
                    oldest.time < time &&
                    static_cast<std::uint64_t>(time) - static_cast<std::uint64_t>(oldest.time) >
                        static_cast<std::uint64_t>(kPendingHorizonNs);
                if (!oldest.judged && !stale) break;
            }
            park(time, tx_id, channel, bytes);
            return;
        }
    }
}

void CaptureBuilder::park(TimePoint time, std::uint64_t tx_id, std::uint8_t channel,
                          BytesView bytes) {
    if (parked_head_ == parked_.size()) {
        parked_.clear();  // nothing awaits a verdict: start the storage over
        parked_head_ = 0;
        arena_.clear();
    }
    if (parked_.size() == parked_.capacity() ||
        arena_.size() + bytes.size() > arena_.capacity()) {
        compact();
    }
    Parked entry;
    entry.tx_id = tx_id;
    entry.time = time;
    entry.offset = static_cast<std::uint32_t>(arena_.size());
    entry.size = static_cast<std::uint32_t>(bytes.size());
    entry.channel = channel;
    // Live streams arrive in tx-id order, so the frame goes last; a trace
    // file may repeat or reorder ids, and a repeat of a frame still waiting
    // for its verdict is ignored.
    auto at = parked_.end();
    if (parked_head_ < parked_.size() && tx_id <= parked_.back().tx_id) {
        at = first_parked_from(tx_id);
        if (at->tx_id == tx_id && !at->judged) return;
        if (at->tx_id == tx_id) at = parked_.erase(at);
    }
    arena_.insert(arena_.end(), bytes.begin(), bytes.end());
    parked_.insert(at, entry);
}

std::vector<CaptureBuilder::Parked>::iterator CaptureBuilder::first_parked_from(
    std::uint64_t tx_id) {
    return std::lower_bound(parked_.begin() + static_cast<std::ptrdiff_t>(parked_head_),
                            parked_.end(), tx_id,
                            [](const Parked& p, std::uint64_t id) { return p.tx_id < id; });
}

void CaptureBuilder::compact() {
    spare_arena_.clear();
    std::size_t kept = 0;
    for (std::size_t i = parked_head_; i < parked_.size(); ++i) {
        Parked entry = parked_[i];
        if (entry.judged) continue;
        const auto first = arena_.begin() + static_cast<std::ptrdiff_t>(entry.offset);
        entry.offset = static_cast<std::uint32_t>(spare_arena_.size());
        spare_arena_.insert(spare_arena_.end(), first, first + entry.size);
        parked_[kept++] = entry;
    }
    parked_.resize(kept);
    parked_head_ = 0;
    arena_.swap(spare_arena_);
    // Still more than half full: double, so that compacting stays amortized O(1).
    if (2 * parked_.size() > parked_.capacity()) parked_.reserve(2 * parked_.capacity());
    if (2 * arena_.size() > arena_.capacity()) arena_.reserve(2 * arena_.capacity());
}

void CaptureBuilder::on_rx(std::uint64_t tx_id, std::string_view receiver,
                           RxVerdict verdict, double rssi_dbm, double noise_dbm,
                           int sync_bit_errors) {
    if (vantage_.kind != VantageKind::kDevice) return;
    if (receiver != vantage_.device) return;
    const auto it = first_parked_from(tx_id);
    if (it == parked_.end() || it->tx_id != tx_id || it->judged) return;
    // The verdict is this receiver's final word on the frame.
    it->judged = true;
    switch (verdict) {
        case RxVerdict::kLostSync:
            // The correlator never matched — a real sniffer logs nothing.
            break;
        case RxVerdict::kDelivered:
        case RxVerdict::kDeliveredCorrupted: {
            PacketInfo info;
            info.time = it->time;
            info.channel = it->channel;
            info.signal_dbm = quantize_dbm(rssi_dbm);
            info.noise_dbm = quantize_dbm(noise_dbm);
            info.signal_valid = true;
            info.noise_valid = true;
            const int offenses = sync_bit_errors < 0 ? 0 : sync_bit_errors;
            info.aa_offenses = static_cast<std::uint8_t>(offenses > 255 ? 255 : offenses);
            info.offenses_valid = true;
            info.crc_checked = true;
            info.crc_valid = verdict == RxVerdict::kDelivered;
            // The parked bytes are the sender's: corruption is reflected in
            // the CRC flags, not by mutating the payload (the medium does not
            // publish the corrupted image).
            append_packet(pcap_, info, BytesView(arena_).subspan(it->offset, it->size));
            break;
        }
    }
}

void CaptureSink::on_event(const Event& event) {
    if (const auto* tx = std::get_if<TxStart>(&event)) {
        builder_.on_tx(tx->time, tx->tx_id, tx->channel, tx->tx_power_dbm, tx->bytes);
    } else if (const auto* rx = std::get_if<RxDecision>(&event)) {
        builder_.on_rx(rx->tx_id, rx->receiver, rx->verdict, rx->rssi_dbm, rx->noise_dbm,
                       rx->sync_bit_errors);
    }
}

std::string pcap_from_trace_lines(const std::vector<std::string>& lines,
                                  const VantagePoint& vantage, std::string* error) {
    CaptureBuilder builder(vantage);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& line = lines[i];
        if (line.empty()) continue;
        const json::ParseResult parsed = json::parse(line);
        if (!parsed.ok || !parsed.value.is_object()) {
            if (error != nullptr) {
                *error = "line " + std::to_string(i + 1) + ": " +
                         (parsed.ok ? "not a JSON object" : parsed.error);
            }
            return {};
        }
        const json::Value& v = parsed.value;
        const std::string kind = v.string_at("e");
        if (kind == "tx") {
            const std::optional<Bytes> bytes = from_hex(v.string_at("hex"));
            if (!bytes) {
                if (error != nullptr) {
                    *error = "line " + std::to_string(i + 1) + ": bad tx hex";
                }
                return {};
            }
            builder.on_tx(v.i64("t_ns"), v.u64("tx_id"),
                          static_cast<std::uint8_t>(v.u64("ch")),
                          v.number("tx_dbm", 0.0), *bytes);
        } else if (kind == "rx") {
            bool verdict_ok = false;
            const RxVerdict verdict = verdict_from_name(v.string_at("verdict"), &verdict_ok);
            if (!verdict_ok) {
                if (error != nullptr) {
                    *error = "line " + std::to_string(i + 1) + ": unknown rx verdict \"" +
                             v.string_at("verdict") + "\"";
                }
                return {};
            }
            builder.on_rx(v.u64("tx_id"), v.string_at("receiver"), verdict,
                          v.number("rssi_dbm", -127.0), v.number("noise_dbm", -100.0),
                          static_cast<int>(v.i64("sync_bit_errors")));
        }
        // Every other event kind (and the meta header, which has no "e") is
        // irrelevant to captures.
    }
    return builder.take();
}

}  // namespace ble::obs::capture
