// Link-layer capture subsystem: deterministic PCAP export.
//
// The paper validates every attack by sniffing the live connection and
// opening the capture in standard analysis tooling; this module renders the
// event stream (TxStart/RxDecision on the per-world EventBus) into the same
// industry format so a simulated hijack is inspectable in Wireshark.
//
// Format (DESIGN.md §14): PCAP, nanosecond magic 0xA1B23C4D, linktype 256
// (DLT_BLUETOOTH_LE_LL_WITH_PHDR): each packet is a 10-byte pseudo-header
// followed by the on-air frame (AA + PDU + CRC, unwhitened).
//
// Vantage points: a capture is either *omniscient* (every TxStart on the
// medium — the god view) or a *device* capture (only frames that device's
// RxDecision says its radio could sync onto — the partial view a real
// nRF-sniffer has).  Both are pure functions of the event stream, which is a
// pure function of (config, seed): capture bytes are bit-identical across
// reruns and across BENCH_JOBS worker counts.
//
// Layering: ble_obs sits below phy/link, so this code treats frames as
// opaque bytes and derives every pseudo-header field from event metadata
// (verdicts, RSSI, sync-bit errors) — never by re-parsing the PDU.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bus.hpp"

namespace ble::obs::capture {

/// Who the capture pretends to be.  W1-monitored: the kind decides how
/// records are built from the stream, so a missed case is a silent data bug.
enum class VantageKind : std::uint8_t {
    kOmniscient = 0,  ///< every TxStart on the medium (god view)
    kDevice = 1,      ///< only frames one named device's radio synced onto
};

[[nodiscard]] const char* vantage_kind_name(VantageKind kind) noexcept;

struct VantagePoint {
    VantageKind kind = VantageKind::kOmniscient;
    std::string device;  ///< receiver name; meaningful for kDevice only
};

/// What the LE_LL_WITH_PHDR pseudo-header and the pcap record header carry
/// about one packet besides its bytes.  `time` is sim-time (ns) — the frame's
/// on-air *start*, for both vantages, so the same frame timestamps
/// identically in an omniscient and a sniffer capture.
struct PacketInfo {
    TimePoint time = 0;
    std::uint8_t channel = 0;       ///< logical BLE channel (0-39)
    std::int8_t signal_dbm = 0;     ///< quantized; see quantize_dbm()
    std::int8_t noise_dbm = 0;
    std::uint8_t aa_offenses = 0;   ///< sync-word bit errors at the receiver
    bool signal_valid = false;
    bool noise_valid = false;
    bool offenses_valid = false;
    bool crc_checked = false;       ///< a receiver judged the CRC
    bool crc_valid = false;         ///< meaningful iff crc_checked

    bool operator==(const PacketInfo&) const = default;
};

/// One packet read back from a capture file: its header fields and the
/// on-air bytes (AA + PDU + CRC, unwhitened).
struct CaptureRecord : PacketInfo {
    Bytes bytes;

    bool operator==(const CaptureRecord&) const = default;
};

/// Logical BLE channel (advertising 37-39, data 0-36) -> RF channel 0-39,
/// the numbering the pseudo-header wants.
[[nodiscard]] std::uint8_t rf_channel_from_logical(std::uint8_t channel) noexcept;
/// Inverse mapping (RF 0-39 -> logical); out-of-range values pass through.
[[nodiscard]] std::uint8_t logical_channel_from_rf(std::uint8_t rf) noexcept;

/// Quantizes a dBm double to the pseudo-header's int8.  Rounds the same
/// exact tenths the JSONL "%.1f" text form holds, so a value rendered to a
/// trace file and parsed back quantizes to the *identical* byte the live
/// sink wrote — the offline exporter's bit-identity depends on this.
[[nodiscard]] std::int8_t quantize_dbm(double dbm) noexcept;

/// The 10-byte LE_LL_WITH_PHDR pseudo-header of `frame` (appended to `out`).
/// The reference access address is the frame's own AA.
void append_phdr(std::string& out, const PacketInfo& info, BytesView frame);

/// Serializes records into a complete pcap file image, through the packet
/// writer CaptureBuilder uses.
[[nodiscard]] std::string pcap_bytes(const std::vector<CaptureRecord>& records);

/// In-repo reader: parses a pcap file image back into records (used by
/// tests and `trace_replay --pcap-diff` for byte-level round-trips; not a
/// general pcap reader — it accepts exactly what the writer emits).
struct ParsedCapture {
    bool ok = false;
    std::string error;
    std::vector<CaptureRecord> records;
};

[[nodiscard]] ParsedCapture parse_capture(std::string_view bytes);

/// The vantage state machine, shared verbatim by the live CaptureSink and the
/// offline JSONL renderer so both write the identical pcap image.
///
/// Omniscient: every on_tx() writes a packet (signal = sender TX power, CRC
/// unchecked — nobody judged it).  Device: on_tx() parks the frame; the named
/// receiver's on_rx() verdict then decides — kLostSync drops the frame (a
/// real sniffer's correlator never matched, it logs nothing), anything else
/// writes a packet with the receiver's RSSI/noise/sync-error view and CRC
/// flags from the verdict.  Parked frames no receiver ever judged are pruned
/// by sim-time horizon, so memory stays bounded and the output is a pure
/// function of the stream.
///
/// Packets are written straight into one pcap image, and parked frames live
/// in a tx-id-ordered queue over one byte arena; both keep their storage
/// across reuse(), so a warmed builder allocates nothing per frame.
class CaptureBuilder {
public:
    explicit CaptureBuilder(VantagePoint vantage);

    void on_tx(TimePoint time, std::uint64_t tx_id, std::uint8_t channel,
               double tx_power_dbm, BytesView bytes);
    void on_rx(std::uint64_t tx_id, std::string_view receiver, RxVerdict verdict,
               double rssi_dbm, double noise_dbm, int sync_bit_errors);

    [[nodiscard]] const VantagePoint& vantage() const noexcept { return vantage_; }
    /// The pcap file image so far: the file header, then one packet per
    /// captured frame.
    [[nodiscard]] const std::string& pcap() const noexcept { return pcap_; }
    /// The captured packets, parsed back from pcap().
    [[nodiscard]] std::vector<CaptureRecord> records() const;

    /// Starts a new capture, keeping the storage; parked frames are dropped.
    void clear();
    /// Moves the pcap image out; call reuse() before the next frame.
    [[nodiscard]] std::string take() noexcept { return std::move(pcap_); }
    /// Starts a new capture in `storage` (a string take() returned, handed
    /// back once its bytes are consumed), keeping its capacity.
    void reuse(std::string&& storage) {
        pcap_ = std::move(storage);
        clear();
    }

private:
    /// A device-vantage frame awaiting its receiver's verdict.
    struct Parked {
        std::uint64_t tx_id = 0;
        TimePoint time = 0;
        std::uint32_t offset = 0;  ///< the frame's bytes in arena_
        std::uint32_t size = 0;
        std::uint8_t channel = 0;
        bool judged = false;       ///< verdict seen: only the slot is left
    };

    void park(TimePoint time, std::uint64_t tx_id, std::uint8_t channel, BytesView bytes);
    /// The first unpruned entry whose tx id is not below `tx_id`.
    std::vector<Parked>::iterator first_parked_from(std::uint64_t tx_id);
    /// Moves the unjudged frames to the front of fresh storage.
    void compact();

    VantagePoint vantage_;
    std::string pcap_;
    std::vector<Parked> parked_;  ///< tx-id order; [parked_head_, end) unpruned
    std::size_t parked_head_ = 0;
    Bytes arena_;
    Bytes spare_arena_;           ///< compact()'s target, then swapped in
};

/// EventBus sink feeding a CaptureBuilder from live TxStart/RxDecision
/// events.  Attach one per trial like the trace sinks, or clear its builder
/// between trials.
class CaptureSink : public EventSink {
public:
    explicit CaptureSink(VantagePoint vantage = {}) : builder_(std::move(vantage)) {}

    void on_event(const Event& event) override;

    [[nodiscard]] CaptureBuilder& builder() noexcept { return builder_; }
    [[nodiscard]] const CaptureBuilder& builder() const noexcept { return builder_; }
    [[nodiscard]] const std::string& pcap() const noexcept { return builder_.pcap(); }
    [[nodiscard]] std::vector<CaptureRecord> records() const { return builder_.records(); }

private:
    CaptureBuilder builder_;
};

/// Offline renderer: replays recorded JSONL trace lines (the
/// INJECTABLE_TRACE_DIR artifact format; the meta header line is skipped)
/// through a CaptureBuilder.  Writes the identical pcap image a live sink at
/// the same vantage wrote, because the tx/rx lines carry every field the
/// builder consumes ("tx_dbm"/"noise_dbm" included) at the same quantization.
/// On malformed input returns an empty string (a capture is never empty: it
/// has a file header) and sets *error.
[[nodiscard]] std::string pcap_from_trace_lines(const std::vector<std::string>& lines,
                                                const VantagePoint& vantage,
                                                std::string* error = nullptr);

}  // namespace ble::obs::capture
