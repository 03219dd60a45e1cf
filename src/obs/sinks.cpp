#include "obs/sinks.hpp"

#include <cstdio>

#include "common/hex.hpp"
#include "common/json.hpp"

#if BLE_OBS_HAS_ZLIB
#include <zlib.h>
#endif

namespace ble::obs {

const char* rx_verdict_name(RxVerdict verdict) noexcept {
    switch (verdict) {
        case RxVerdict::kDelivered: return "delivered";
        case RxVerdict::kDeliveredCorrupted: return "corrupted";
        case RxVerdict::kLostSync: return "lost-sync";
    }
    return "?";
}

const char* event_kind_name(const Event& event) noexcept {
    struct Visitor {
        const char* operator()(const TxStart&) const { return "tx"; }
        const char* operator()(const RxDecision&) const { return "rx"; }
        const char* operator()(const ConnEvent&) const { return "conn"; }
        const char* operator()(const WindowWiden&) const { return "widen"; }
        const char* operator()(const InjectionAttempt&) const { return "attempt"; }
        const char* operator()(const IdsAlert&) const { return "ids"; }
        const char* operator()(const TrialPhase&) const { return "phase"; }
    };
    return std::visit(Visitor{}, event);
}

namespace {

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

}  // namespace

std::string to_jsonl(const Event& event, const FrameDescriber& describe) {
    std::string out;
    append_jsonl(out, event, describe);
    return out;
}

void JsonlTraceSink::on_event(const Event& event) {
    append_jsonl(text_, event, describe_);
    text_ += '\n';
}

void JsonlTraceSink::set_header(std::string_view line) {
    const std::string head = line.empty() ? std::string() : std::string(line) + '\n';
    text_.replace(0, header_size_, head);
    header_size_ = head.size();
}

bool trace_compression_available() noexcept {
#if BLE_OBS_HAS_ZLIB
    return true;
#else
    return false;
#endif
}

bool write_text_file(const std::string& path, std::string_view content, bool gzip) {
#if BLE_OBS_HAS_ZLIB
    if (gzip) {
        gzFile gz = gzopen(path.c_str(), "wb");
        if (gz == nullptr) return false;
        bool ok = content.empty() ||
                  gzwrite(gz, content.data(), static_cast<unsigned>(content.size())) ==
                      static_cast<int>(content.size());
        if (gzclose(gz) != Z_OK) ok = false;
        return ok;
    }
#else
    (void)gzip;  // graceful fallback: write plain when zlib is unavailable
#endif
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = content.empty() || std::fwrite(content.data(), 1, content.size(), f) == content.size();
    if (std::fclose(f) != 0) ok = false;
    return ok;
}

bool read_binary_file(const std::string& path, std::string& content, std::string* error) {
    content.clear();
    bool ok = false;
#if BLE_OBS_HAS_ZLIB
    // gzread is transparent: it inflates gzip streams and passes plain files
    // through unchanged, so one path serves .pcap and .pcap.gz alike.
    if (gzFile gz = gzopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        int n = 0;
        ok = true;
        while ((n = gzread(gz, buf, sizeof(buf))) > 0) content.append(buf, static_cast<std::size_t>(n));
        if (n < 0) ok = false;
        if (gzclose(gz) != Z_OK) ok = false;
    }
#else
    if (path.size() >= 3 && path.compare(path.size() - 3, 3, ".gz") == 0) {
        if (error != nullptr) *error = "built without zlib: cannot read " + path;
        return false;
    }
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        std::size_t n = 0;
        ok = true;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
        if (std::ferror(f) != 0) ok = false;
        std::fclose(f);
    }
#endif
    if (!ok && error != nullptr) *error = "cannot read " + path;
    return ok;
}

std::vector<std::string> read_jsonl_file(const std::string& path, std::string* error) {
    std::string content;
    if (!read_binary_file(path, content, error)) return {};
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < content.size()) {
        std::size_t nl = content.find('\n', pos);
        if (nl == std::string::npos) nl = content.size();
        lines.emplace_back(content, pos, nl - pos);
        pos = nl + 1;
    }
    return lines;
}

}  // namespace ble::obs
