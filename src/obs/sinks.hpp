// The JSONL trace sink and the file primitives every result channel shares.
//
// JsonlTraceSink appends every event as one JSON line to one in-memory
// buffer; TrialRunner-style harnesses attach one per trial and flush the
// buffer to a file next to the INJECTABLE_JSON records when the trial fails,
// keyed by seed, so the trial can be replayed frame-by-frame.  The counters
// over the same stream live in obs/metrics.hpp (MetricsSink).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bus.hpp"

namespace ble::obs {

/// Optional frame decoder injected by higher layers, which keeps ble_obs free
/// of link-layer knowledge: appends a frame's one-line description (a TxStart
/// line's "desc" field) to `out`, as link::append_frame_description does.
using FrameDescriber = void (*)(std::string& out, BytesView frame);

/// Writes `content` to `path` (truncating).  Returns false on I/O error.
/// This is the one file-writing primitive every result channel shares, so
/// artifact bytes are identical no matter which sink routed them.
bool write_text_file(const std::string& path, std::string_view content);

/// Reads a whole file into `content` as raw bytes: the binary counterpart of
/// read_jsonl_file, through which capture files (.pcap) come back.  Returns
/// false and sets *error on failure.
[[nodiscard]] bool read_binary_file(const std::string& path, std::string& content,
                                    std::string* error = nullptr);

/// Reads a JSONL file into lines (without the trailing newlines).  On
/// failure returns an empty vector and sets *error.
[[nodiscard]] std::vector<std::string> read_jsonl_file(const std::string& path,
                                                       std::string* error = nullptr);

/// Renders every event as one JSON line, in one pass through a raw cursor,
/// into a single buffer (header line first, if set); write_text_file(path,
/// str()) flushes it, and take() hands it over uncopied.  The buffer keeps
/// its room across clear() and reuse(), so a sink that serves trial after
/// trial stops allocating once it has held the longest trace.
class JsonlTraceSink : public EventSink {
public:
    explicit JsonlTraceSink(FrameDescriber describe = nullptr) : describe_(describe) {}

    void on_event(const Event& event) override;

    /// Optional metadata line kept before the event lines (the replay tool
    /// stores the trial's reconstructed config here).  Not part of events().
    void set_header(std::string_view line);

    /// The event lines, each terminated by '\n', without the header.
    [[nodiscard]] std::string_view events() const noexcept { return str().substr(header_size_); }
    /// The whole trace as written to disk: the header line, then the events.
    [[nodiscard]] std::string_view str() const noexcept { return {text_.data(), size_}; }
    /// Moves the whole trace out and leaves the sink empty.
    [[nodiscard]] std::string take();
    /// Starts an empty trace in `storage` (a string take() returned, handed
    /// back once its bytes are consumed), keeping its capacity as room.
    void reuse(std::string&& storage);
    /// Empties the trace, header included, and keeps the room.
    void clear() noexcept {
        size_ = 0;
        header_size_ = 0;
    }

private:
    FrameDescriber describe_ = nullptr;
    std::string text_;             ///< the trace in [0, size_), then room
    std::size_t size_ = 0;
    std::size_t header_size_ = 0;  ///< bytes the header line takes, '\n' included
    std::string description_;      ///< the describer's output for the current frame
};

}  // namespace ble::obs
