#include "obs/sinks.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/hex.hpp"
#include "common/json.hpp"

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
    static constexpr const char* kNames[] = {"tx",      "rx",  "conn", "widen",
                                             "attempt", "ids", "phase"};
    static_assert(std::size(kNames) == std::variant_size_v<Event>);
    return kNames[event.index()];
}

namespace {

/// A trace line's opening, by event kind: `{"e":"<event_kind_name>"`.
constexpr std::string_view kLineOpen[] = {
    R"({"e":"tx")",      R"({"e":"rx")",  R"({"e":"conn")", R"({"e":"widen")",
    R"({"e":"attempt")", R"({"e":"ids")", R"({"e":"phase")"};
static_assert(std::size(kLineOpen) == std::variant_size_v<Event>);

/// `,"verdict":"<rx_verdict_name>"`, written whole.
std::string_view verdict_member(RxVerdict verdict) noexcept {
    switch (verdict) {
        case RxVerdict::kDelivered: return R"(,"verdict":"delivered")";
        case RxVerdict::kDeliveredCorrupted: return R"(,"verdict":"corrupted")";
        case RxVerdict::kLostSync: return R"(,"verdict":"lost-sync")";
    }
    return R"(,"verdict":"?")";
}

TimePoint event_time(const Event& event) noexcept {
    return std::visit([](const auto& e) { return e.time; }, event);
}

/// Writes one event's line through a raw cursor into the room past a trace,
/// which grows geometrically: a line makes room for all its scalars
/// at once and each name or frame for its longest rendering.  dBm figures are
/// capture::quantize_dbm's exact tenths, so offline pcap rendering matches live.
class Line {
public:
    /// Keys, kind and fixed names (under 140 chars), six integers, two dBm.
    static constexpr std::size_t kScalarChars =
        256 + 6 * json::kIntChars + 2 * json::kFixed1Chars;

    Line(std::string& text, std::size_t size, FrameDescriber describe, std::string& description)
        : text_(text), describe_(describe), description_(description), p_(text.data() + size) {
        room(0);
    }
    /// The trace's size after the line.  Aborts past the room: a bound undercounts.
    [[nodiscard]] std::size_t end() const noexcept {
        const auto size = static_cast<std::size_t>(p_ - text_.data());
        if (size > text_.size()) std::abort();
        return size;
    }

    void lit(std::string_view text) noexcept {
        std::memcpy(p_, text.data(), text.size());
        p_ += text.size();
    }
    void num(std::string_view key, long long value) noexcept {
        lit(key);
        p_ = std::to_chars(p_, p_ + json::kIntChars, value).ptr;  // digit pairs
    }
    void fixed1(std::string_view key, double value) noexcept {
        lit(key);
        p_ = json::write_fixed1(p_, value);
    }
    void boolean(std::string_view key, bool value) noexcept {
        lit(key);
        lit(value ? "true" : "false");
    }
    void str(std::string_view key, std::string_view value) {
        room(json::kEscapedCharsPerByte * value.size());
        lit(key);
        *p_++ = '"';
        p_ = json::write_escaped(p_, value);
        *p_++ = '"';
    }

    void operator()(const TxStart& e) {
        num(",\"tx_id\":", static_cast<long long>(e.tx_id));
        num(",\"ch\":", e.channel);
        str(",\"sender\":", e.sender);
        num(",\"dur_ns\":", e.duration);
        fixed1(",\"tx_dbm\":", e.tx_power_dbm);
        room(2 * e.bytes.size());
        lit(",\"hex\":\"");
        p_ = write_hex(p_, e.bytes);
        lit("\"");
        if (describe_ == nullptr) return;
        description_.clear();
        describe_(description_, e.bytes);
        str(",\"desc\":", description_);
    }
    void operator()(const RxDecision& e) {
        num(",\"tx_id\":", static_cast<long long>(e.tx_id));
        num(",\"ch\":", e.channel);
        str(",\"receiver\":", e.receiver);
        lit(verdict_member(e.verdict));
        fixed1(",\"rssi_dbm\":", e.rssi_dbm);
        fixed1(",\"noise_dbm\":", e.noise_dbm);
        num(",\"corrupted_bytes\":", e.corrupted_bytes);
        num(",\"sync_bit_errors\":", e.sync_bit_errors);
    }
    void operator()(const ConnEvent& e) {
        lit(e.kind == ConnEvent::Kind::kOpened        ? R"(,"kind":"opened")"
            : e.kind == ConnEvent::Kind::kEventClosed ? R"(,"kind":"event")"
                                                      : R"(,"kind":"closed")");
        str(",\"device\":", e.device);
        lit(e.role == 0 ? R"(,"role":"master")" : R"(,"role":"slave")");
        num(",\"event_counter\":", e.event_counter);
        num(",\"ch\":", e.channel);
        if (e.kind == ConnEvent::Kind::kEventClosed) {
            boolean(",\"anchor\":", e.anchor_observed);
            num(",\"rx\":", e.pdus_rx);
            num(",\"tx\":", e.pdus_tx);
            num(",\"crc_errors\":", e.crc_errors);
        }
        if (e.kind == ConnEvent::Kind::kClosed) str(",\"reason\":", e.reason);
    }
    void operator()(const WindowWiden& e) {
        str(",\"device\":", e.device);
        num(",\"event_counter\":", e.event_counter);
        num(",\"ch\":", e.channel);
        num(",\"widening_ns\":", e.widening);
        num(",\"window_ns\":", e.window);
        boolean(",\"missed\":", e.missed);
    }
    void operator()(const InjectionAttempt& e) {
        num(",\"attempt\":", e.attempt);
        num(",\"event_counter\":", e.event_counter);
        num(",\"ch\":", e.channel);
        boolean(",\"heuristic_success\":", e.heuristic_success);
        if (e.ground_truth_known) boolean(",\"accepted\":", e.accepted_by_slave);
    }
    void operator()(const IdsAlert& e) {
        num(",\"type\":", e.type);
        str(",\"name\":", e.type_name);
        num(",\"event_counter\":", e.event_counter);
        str(",\"detail\":", e.detail);
    }
    void operator()(const TrialPhase& e) {
        num(",\"seed\":", static_cast<long long>(e.seed));
        str(",\"phase\":", e.phase);
        if (!e.detail.empty()) str(",\"detail\":", e.detail);
    }

private:
    /// Room past the cursor for `chars` plus a whole line's scalars.
    void room(std::size_t chars) {
        const auto at = static_cast<std::size_t>(p_ - text_.data());
        if (text_.size() < at + chars + kScalarChars) {
            text_.resize(std::max(at + chars + kScalarChars, 2 * text_.size()));
            p_ = text_.data() + at;
        }
    }

    std::string& text_;
    FrameDescriber describe_;
    std::string& description_;  ///< reused buffer for describe_'s output
    char* p_;
};

}  // namespace

void JsonlTraceSink::on_event(const Event& event) {
    Line line(text_, size_, describe_, description_);
    line.lit(kLineOpen[event.index()]);
    line.num(",\"t_ns\":", event_time(event));
    std::visit(line, event);
    line.lit("}\n");
    size_ = line.end();
}

void JsonlTraceSink::set_header(std::string_view line) {
    const std::size_t head = line.empty() ? 0 : line.size() + 1;
    const std::size_t events = size_ - header_size_;
    if (text_.size() < head + events) text_.resize(head + events);
    std::memmove(text_.data() + head, text_.data() + header_size_, events);
    std::memcpy(text_.data(), line.data(), line.size());
    if (head != 0) text_[head - 1] = '\n';
    size_ = head + events;
    header_size_ = head;
}

std::string JsonlTraceSink::take() {
    std::string out = std::move(text_.erase(size_));
    text_.clear();
    clear();
    return out;
}

void JsonlTraceSink::reuse(std::string&& storage) {
    text_ = std::move(storage);
    text_.resize(text_.capacity());
    clear();
}

bool write_text_file(const std::string& path, std::string_view content) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = content.empty() || std::fwrite(content.data(), 1, content.size(), f) == content.size();
    if (std::fclose(f) != 0) ok = false;
    return ok;
}

bool read_binary_file(const std::string& path, std::string& content, std::string* error) {
    content.clear();
    bool ok = false;
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        std::size_t n = 0;
        ok = true;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
        if (std::ferror(f) != 0) ok = false;
        std::fclose(f);
    }
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
