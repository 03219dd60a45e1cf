// Intrusion detection for InjectaBLE-style attacks (paper §VIII, solution 3:
// "An IDS designed to monitor BLE Link Layer could be able to detect, at the
// right instant, the presence of double frames ... variations in the timing
// between packet emissions").
//
// The monitor is a passive radio following the target connection with the
// same sniffing machinery the attacker uses (an observe-only AttackSession —
// defenders and attackers share the synchronisation problem). Four detectors
// run over the packet stream, each keyed to one attack signature:
//
//  * ANCHOR JITTER — a winning injection re-anchors the slave up to a full
//    widening early; the next legitimate anchor then lands `w` late relative
//    to the previous (attacker) anchor. Legitimate drift is bounded by the
//    SCAs exchanged in CONNECT_REQ, so any |delta - interval| beyond that
//    bound (+ margin) is flagged.
//  * CRC BURST — losing injection attempts corrupt the anchor frame
//    (collision outcome (b) of Fig. 5); a run of CRC-failed master frames on
//    an otherwise healthy link is the attack's rumble.
//  * SPURIOUS TERMINATE — scenario B's signature: an LL_TERMINATE_IND is
//    followed by *continued* master polling (a real termination ends the
//    connection; a hijack keeps it alive for the impostor slave).
//  * FORGED UPDATE — scenarios C/D: a CONNECTION_UPDATE_IND after whose
//    instant anchors keep arriving at the *old* cadence (the legitimate
//    master never applied it, because it never sent it).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>

#include "core/session.hpp"

namespace ble::ids {

enum class AlertType : std::uint8_t {
    kAnchorJitter,
    kCrcBurst,
    kSpuriousTerminate,
    kForgedUpdate,
    /// The paper's headline signature: "the presence of double frames: the
    /// legitimate Master frame and the attacker one" in a single event.
    kDoubleAnchor,
    kConnectionLost,
};

[[nodiscard]] const char* alert_type_name(AlertType type) noexcept;

struct DetectorParams {
    /// Extra anchor-timing tolerance beyond the spec drift bound. Must sit
    /// between benign observation noise (a few µs) and the anchor shift a
    /// winning injection causes (widening minus attacker latency, ~15-30 µs).
    Duration jitter_margin = microseconds(6);
    /// Master-classified frames in the same event further apart than this are
    /// a double anchor (MD exchanges re-poll within ~1 ms; forged transmit
    /// windows start >= 1.25 ms later).
    Duration double_anchor_gap = microseconds(1200);
    /// CRC-burst detector: window length (events) and failure threshold.
    int crc_window_events = 16;
    int crc_burst_threshold = 3;
    /// Events of continued master activity after a TERMINATE_IND before the
    /// hijack alert fires.
    int terminate_grace_events = 3;
    /// Events of old-cadence anchors after an update instant before alerting.
    int update_grace_events = 2;
};

/// Every alert is published as an obs::IdsAlert on the medium's event bus.
class InjectionDetector {
public:
    /// The detector owns an observe-only session on `radio` following
    /// `target` (captured by the defender's own sniffer).
    InjectionDetector(injectable::AttackerRadio& radio, injectable::SniffedConnection target,
                      DetectorParams params = {});
    ~InjectionDetector();

    void start();
    void stop();

    [[nodiscard]] int alerts_raised() const noexcept { return alerts_; }
    [[nodiscard]] bool following() const noexcept { return session_ && !session_->lost(); }
    /// Events observed so far (diagnostics / false-positive-rate baselines).
    [[nodiscard]] std::uint64_t events_observed() const noexcept { return events_; }

private:
    void handle_packet(const injectable::SniffedPacket& packet);
    void raise(AlertType type, std::uint16_t event_counter, std::string_view detail);

    injectable::AttackerRadio& radio_;
    DetectorParams params_;
    std::unique_ptr<injectable::AttackSession> session_;

    int alerts_ = 0;
    std::uint64_t events_ = 0;

    // Anchor-jitter state.
    std::optional<TimePoint> last_anchor_;
    std::uint16_t last_anchor_event_ = 0;

    // CRC-burst state.
    std::deque<bool> crc_history_;

    // Terminate-hijack state.
    bool terminate_seen_ = false;
    std::uint16_t terminate_event_ = 0;

    // Forged-update state.
    std::optional<link::ConnectionUpdateInd> update_seen_;
    int old_cadence_after_instant_ = 0;
    std::uint16_t old_interval_ = 0;
};

}  // namespace ble::ids
