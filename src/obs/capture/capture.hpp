// Link-layer capture subsystem: deterministic PCAP / btsnoop export.
//
// The paper validates every attack by sniffing the live connection and
// opening the capture in standard analysis tooling; this module renders the
// event stream (TxStart/RxDecision on the per-world EventBus) into the same
// industry formats so a simulated hijack is inspectable in Wireshark.
//
// Formats (DESIGN.md §14):
//  * PCAP, nanosecond magic 0xA1B23C4D, linktype 256
//    (DLT_BLUETOOTH_LE_LL_WITH_PHDR): each packet is a 10-byte pseudo-header
//    followed by the on-air frame (AA + PDU + CRC, unwhitened).
//  * btsnoop: the classic HCI-log framing (big-endian, µs timestamps against
//    the 0 AD epoch), carrying the identical phdr+frame payload with the
//    datalink field set to the same linktype value.
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
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bus.hpp"

namespace ble::obs::capture {

/// On-disk capture container.  Wire-adjacent (file magic selects the
/// parser), so injectable_lint rule W1 holds switches over it exhaustive.
enum class CaptureFormat : std::uint8_t {
    kPcap = 0,     ///< pcap, ns resolution, linktype 256
    kBtsnoop = 1,  ///< btsnoop v1, µs resolution, same payload layout
};

[[nodiscard]] const char* capture_format_name(CaptureFormat format) noexcept;
/// ".pcap" / ".btsnoop" (no gzip suffix).
[[nodiscard]] const char* capture_format_extension(CaptureFormat format) noexcept;

/// Who the capture pretends to be.  Also W1-monitored: the kind decides how
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

/// One captured frame: everything the LE_LL_WITH_PHDR pseudo-header carries
/// plus the on-air bytes.  `time` is sim-time (ns) — the frame's on-air
/// *start*, for both vantages, so the same frame timestamps identically in an
/// omniscient and a sniffer capture.
struct CaptureRecord {
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
    Bytes bytes;                    ///< AA + PDU + CRC, unwhitened

    bool operator==(const CaptureRecord&) const = default;
};

/// Logical BLE channel (advertising 37-39, data 0-36) -> RF channel 0-39,
/// the numbering the pseudo-header wants.
[[nodiscard]] std::uint8_t rf_channel_from_logical(std::uint8_t channel) noexcept;
/// Inverse mapping (RF 0-39 -> logical); out-of-range values pass through.
[[nodiscard]] std::uint8_t logical_channel_from_rf(std::uint8_t rf) noexcept;

/// Quantizes a dBm double to the pseudo-header's int8.  Goes through the
/// JSONL "%.1f" text form first, so a value rendered to a trace file and
/// parsed back quantizes to the *identical* byte the live sink wrote —
/// the offline exporter's bit-identity depends on this.
[[nodiscard]] std::int8_t quantize_dbm(double dbm) noexcept;

/// The 10-byte LE_LL_WITH_PHDR pseudo-header for one record (appended to
/// `out`).  The reference access address is the frame's own AA.
void append_phdr(std::string& out, const CaptureRecord& record);

/// Serializes records into a complete capture file image.
[[nodiscard]] std::string pcap_bytes(const std::vector<CaptureRecord>& records);
[[nodiscard]] std::string btsnoop_bytes(const std::vector<CaptureRecord>& records);
[[nodiscard]] std::string capture_bytes(const std::vector<CaptureRecord>& records,
                                        CaptureFormat format);

/// In-repo reader: parses a capture file image back into records (used by
/// tests and `trace_replay --pcap-diff` for byte-level round-trips; not a
/// general pcap reader — it accepts exactly what the writers emit).
struct ParsedCapture {
    bool ok = false;
    std::string error;
    CaptureFormat format = CaptureFormat::kPcap;
    std::vector<CaptureRecord> records;
};

[[nodiscard]] ParsedCapture parse_pcap(std::string_view bytes);
[[nodiscard]] ParsedCapture parse_btsnoop(std::string_view bytes);
/// Detects the format by magic and dispatches.
[[nodiscard]] ParsedCapture parse_capture(std::string_view bytes);

/// The vantage state machine, shared verbatim by the live CaptureSink and the
/// offline JSONL renderer so both produce the identical record sequence.
///
/// Omniscient: every on_tx() appends a record (signal = sender TX power, CRC
/// unchecked — nobody judged it).  Device: on_tx() parks the frame; the named
/// receiver's on_rx() verdict then decides — kLostSync drops the frame (a
/// real sniffer's correlator never matched, it logs nothing), anything else
/// appends a record with the receiver's RSSI/noise/sync-error view and CRC
/// flags from the verdict.  Parked frames no receiver ever judged are pruned
/// by sim-time horizon, so memory stays bounded and the output is a pure
/// function of the stream.
class CaptureBuilder {
public:
    explicit CaptureBuilder(VantagePoint vantage);

    void on_tx(TimePoint time, std::uint64_t tx_id, std::uint8_t channel,
               double tx_power_dbm, BytesView bytes);
    void on_rx(std::uint64_t tx_id, std::string_view receiver, RxVerdict verdict,
               double rssi_dbm, double noise_dbm, int sync_bit_errors);

    [[nodiscard]] const VantagePoint& vantage() const noexcept { return vantage_; }
    [[nodiscard]] const std::vector<CaptureRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] std::string bytes(CaptureFormat format) const {
        return capture_bytes(records_, format);
    }

private:
    struct PendingTx {
        TimePoint time = 0;
        std::uint8_t channel = 0;
        double tx_power_dbm = 0.0;
        Bytes bytes;
    };

    VantagePoint vantage_;
    std::vector<CaptureRecord> records_;
    std::map<std::uint64_t, PendingTx> pending_;  ///< device vantage only
};

/// EventBus sink feeding a CaptureBuilder from live TxStart/RxDecision
/// events.  Attach one per trial like the trace sinks.
class CaptureSink : public EventSink {
public:
    explicit CaptureSink(VantagePoint vantage = {}) : builder_(std::move(vantage)) {}

    void on_event(const Event& event) override;

    [[nodiscard]] const CaptureBuilder& builder() const noexcept { return builder_; }
    [[nodiscard]] const std::vector<CaptureRecord>& records() const noexcept {
        return builder_.records();
    }
    [[nodiscard]] std::string pcap_bytes() const { return builder_.bytes(CaptureFormat::kPcap); }
    [[nodiscard]] std::string btsnoop_bytes() const {
        return builder_.bytes(CaptureFormat::kBtsnoop);
    }

private:
    CaptureBuilder builder_;
};

/// Offline renderer: replays recorded JSONL trace lines (the
/// INJECTABLE_TRACE_DIR artifact format; the meta header line is skipped)
/// through a CaptureBuilder.  Produces the identical records a live sink at
/// the same vantage produced, because the tx/rx lines carry every field the
/// builder consumes ("tx_dbm"/"noise_dbm" included) at the same quantization.
/// On malformed input returns an empty vector and sets *error.
[[nodiscard]] std::vector<CaptureRecord> records_from_trace_lines(
    const std::vector<std::string>& lines, const VantagePoint& vantage,
    std::string* error = nullptr);

}  // namespace ble::obs::capture
