// The observation layer's event taxonomy.
//
// The paper's evaluation (§VII, Fig. 9) reasons entirely from *observed
// events*: injection attempts, capture outcomes, window-widening misses, IDS
// alerts.  Every emitting layer (sim medium, link connections, the attack
// harness, the IDS) publishes these structured events on the per-world
// obs::EventBus instead of through per-class observer callbacks, so one
// subscriber — a counter sink, the human-readable packet trace, a JSONL trace
// writer — sees the whole story of a trial in one stream.
//
// Events are plain structs over ble_common types only.  String and byte
// fields are *views* into the emitter's storage: they are valid for the
// duration of the dispatch and must be copied by sinks that buffer.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>

#include "common/bytes.hpp"
#include "common/time.hpp"

namespace injectable {
struct AttemptReport;
}  // namespace injectable

namespace ble::obs {

/// A transmission started on the medium (one per over-the-air frame).
struct TxStart {
    TimePoint time = 0;
    std::uint64_t tx_id = 0;  ///< the medium's transmission id
    std::uint8_t channel = 0;
    std::string_view sender;  ///< device name (view; valid during dispatch)
    BytesView bytes;          ///< AA + PDU + CRC, unwhitened
    Duration duration = 0;    ///< airtime including the preamble
    double tx_power_dbm = 0.0;  ///< sender's transmit power (capture phdr signal)
};

/// What the medium decided for one (transmission, locked receiver) pair —
/// the capture model's verdict.
enum class RxVerdict : std::uint8_t {
    kDelivered,           ///< frame handed to the receiver intact
    kDeliveredCorrupted,  ///< handed over with corrupted bytes (CRC will fail)
    kLostSync,            ///< sync word corrupted beyond tolerance: silently lost
};

[[nodiscard]] const char* rx_verdict_name(RxVerdict verdict) noexcept;

struct RxDecision {
    TimePoint time = 0;
    std::uint64_t tx_id = 0;
    std::uint8_t channel = 0;
    std::string_view receiver;
    RxVerdict verdict = RxVerdict::kDelivered;
    double rssi_dbm = -127.0;
    double noise_dbm = -100.0;  ///< medium noise floor at this receiver
    int corrupted_bytes = 0;
    int sync_bit_errors = 0;
};

/// Link-layer connection lifecycle, as seen by one end.
struct ConnEvent {
    enum class Kind : std::uint8_t {
        kOpened,       ///< connection armed (start / resume)
        kEventClosed,  ///< one connection event finished (diagnostics attached)
        kClosed,       ///< connection ended (reason attached)
    };
    Kind kind = Kind::kOpened;
    TimePoint time = 0;
    std::string_view device;
    std::uint8_t role = 0;  ///< 0 = master, 1 = slave
    std::uint16_t event_counter = 0;
    std::uint8_t channel = 0;
    // kEventClosed diagnostics (ConnectionEventReport fields).
    bool anchor_observed = false;
    int pdus_rx = 0;
    int pdus_tx = 0;
    int crc_errors = 0;
    /// kClosed: disconnect reason name.
    std::string_view reason;
};

/// A slave opened (or timed out) its widened receive window — the Eq. 4/5
/// mechanism the injection races against.
struct WindowWiden {
    TimePoint time = 0;
    std::string_view device;
    std::uint16_t event_counter = 0;
    std::uint8_t channel = 0;
    Duration widening = 0;  ///< Eq. 4 widening applied on each side
    Duration window = 0;    ///< transmit-window length beyond the widening
    bool missed = false;    ///< true: the window expired with no anchor heard
};

/// One injection attempt with the attacker's Eq. 7 verdict and — when the
/// harness has god-view ground truth — whether the slave really accepted it.
struct InjectionAttempt {
    TimePoint time = 0;
    int attempt = 0;  ///< 1-based
    std::uint16_t event_counter = 0;
    std::uint8_t channel = 0;
    bool heuristic_success = false;   ///< Eq. 7 verdict
    bool ground_truth_known = false;  ///< god view available for this attempt
    bool accepted_by_slave = false;   ///< ground truth (valid iff known)
    /// Full attacker-side report; valid only during dispatch.
    const injectable::AttemptReport* report = nullptr;
};

/// An intrusion-detection alert (paper §VIII, solution 3).
struct IdsAlert {
    TimePoint time = 0;
    std::uint8_t type = 0;  ///< ids::AlertType numeric value
    std::string_view type_name;
    std::uint16_t event_counter = 0;
    std::string_view detail;
};

/// A phase transition of one experiment trial (setup, establish, encrypt,
/// sync, inject, done).  `seed` keys the trial for replay.
struct TrialPhase {
    TimePoint time = 0;
    std::uint64_t seed = 0;
    std::string_view phase;
    std::string_view detail;
};

using Event = std::variant<TxStart, RxDecision, ConnEvent, WindowWiden, InjectionAttempt,
                           IdsAlert, TrialPhase>;

/// Short stable tag for each alternative ("tx", "rx", "conn", "widen",
/// "attempt", "ids", "phase") — used by the JSONL sink and by filters.
[[nodiscard]] const char* event_kind_name(const Event& event) noexcept;

}  // namespace ble::obs
