// Stock sinks for the observation bus.
//
//  * CounterSink — lock-free per-trial metrics: every counter is a relaxed
//    atomic, so an aggregator thread may snapshot while the trial's scheduler
//    thread keeps emitting (the TrialRunner pattern).
//  * JsonlTraceSink — serializes every event into one JSON line, buffered in
//    memory; TrialRunner-style harnesses attach one per trial and flush the
//    buffer to a file next to the INJECTABLE_JSON records when the trial
//    fails, keyed by seed, so the trial can be replayed frame-by-frame.
//
// The human-readable third sink is link::PacketTrace, which subscribes to the
// same bus but needs the link layer to decode frames — it lives in ble_link.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/bus.hpp"

namespace ble::obs {

/// Optional frame decoder injected by higher layers (link::describe_frame
/// has exactly this signature); keeps ble_obs free of link-layer knowledge.
using FrameDescriber = std::function<std::string(BytesView)>;

/// Appends `s` as the body of a JSON string literal (no surrounding quotes):
/// quotes/backslashes and the short control escapes (\n \t \r \b \f) are
/// escaped, every other control byte, DEL and every non-ASCII byte becomes
/// \u00xx (Latin-1 view of the byte) — device names and frame descriptions
/// are attacker-influenced, so the output must stay valid JSON (and valid
/// UTF-8) for ANY input bytes.
void append_json_escaped(std::string& out, std::string_view s);
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serializes one event as a compact single-line JSON object (no trailing
/// newline).  With a describer, TxStart lines carry a decoded "desc" field.
[[nodiscard]] std::string to_jsonl(const Event& event, const FrameDescriber& describe = {});

/// True when ble_obs was built with zlib: gzip-compressed trace writing (and
/// transparent .gz reading) is available.
[[nodiscard]] bool trace_compression_available() noexcept;

/// Writes `content` to `path` (truncating); with gzip=true the stream is
/// gzip-compressed when trace_compression_available(), and written plain
/// otherwise (graceful fallback).  Returns false on I/O error.  This is the
/// one file-writing primitive every result channel shares, so artifact bytes
/// are identical no matter which sink routed them.
bool write_text_file(const std::string& path, std::string_view content, bool gzip = false);

/// Reads a whole file into `content` as raw bytes.  Reads gzip-compressed
/// files transparently when built with zlib (plain files work either way).
/// The binary counterpart of read_jsonl_file — capture files (.pcap[.gz],
/// .btsnoop[.gz]) come back through here.  Returns false and sets *error on
/// failure.
[[nodiscard]] bool read_binary_file(const std::string& path, std::string& content,
                                    std::string* error = nullptr);

/// Reads a JSONL file into lines (without the trailing newlines).  Reads
/// gzip-compressed files transparently when built with zlib (plain files work
/// either way).  On failure returns an empty vector and sets *error.
[[nodiscard]] std::vector<std::string> read_jsonl_file(const std::string& path,
                                                       std::string* error = nullptr);

/// Lock-free counters over the event stream.
class CounterSink : public EventSink {
public:
    struct Snapshot {
        std::uint64_t tx_frames = 0;
        std::uint64_t rx_delivered = 0;
        std::uint64_t rx_corrupted = 0;  ///< delivered with corrupted bytes
        std::uint64_t rx_lost_sync = 0;
        std::uint64_t conn_opened = 0;
        std::uint64_t conn_events = 0;
        std::uint64_t conn_closed = 0;
        std::uint64_t anchors_missed = 0;  ///< event closed without an anchor
        std::uint64_t windows_opened = 0;
        std::uint64_t window_misses = 0;
        std::uint64_t injection_attempts = 0;
        std::uint64_t injection_wins = 0;      ///< Eq. 7 verdict: success
        std::uint64_t injection_accepted = 0;  ///< ground truth: slave took it
        std::uint64_t ids_alerts = 0;
        std::uint64_t phases = 0;
    };

    void on_event(const Event& event) override;
    [[nodiscard]] Snapshot snapshot() const noexcept;
    void reset() noexcept;

private:
    using Counter = std::atomic<std::uint64_t>;
    Counter tx_frames_{0}, rx_delivered_{0}, rx_corrupted_{0}, rx_lost_sync_{0};
    Counter conn_opened_{0}, conn_events_{0}, conn_closed_{0}, anchors_missed_{0};
    Counter windows_opened_{0}, window_misses_{0};
    Counter injection_attempts_{0}, injection_wins_{0}, injection_accepted_{0};
    Counter ids_alerts_{0}, phases_{0};
};

/// Buffers every event as one JSON line; flush with write_file() / str().
class JsonlTraceSink : public EventSink {
public:
    explicit JsonlTraceSink(FrameDescriber describe = {}) : describe_(std::move(describe)) {}

    void on_event(const Event& event) override { lines_.push_back(to_jsonl(event, describe_)); }

    /// Optional metadata line written before the event lines (the replay tool
    /// stores the trial's reconstructed config here).  Not part of lines().
    void set_header(std::string line) { header_ = std::move(line); }
    [[nodiscard]] const std::string& header() const noexcept { return header_; }

    [[nodiscard]] const std::vector<std::string>& lines() const noexcept { return lines_; }
    [[nodiscard]] std::string str() const;
    void clear() noexcept {
        lines_.clear();
        header_.clear();
    }

    /// Writes the header (if any) and all lines to `path` (truncating);
    /// returns false on I/O error.  With gzip=true the stream is
    /// gzip-compressed when trace_compression_available(), and written plain
    /// otherwise (graceful fallback).
    bool write_file(const std::string& path, bool gzip = false) const;

private:
    FrameDescriber describe_;
    std::string header_;
    std::vector<std::string> lines_;
};

}  // namespace ble::obs
