// AttackSession: the heart of InjectaBLE (paper §V).
//
// One session tracks one target connection with the attacker's single
// half-duplex radio, alternating between two per-event modes:
//
//  * OBSERVE — sniff the connection event passively: re-anchor on the
//    master's frame, harvest the slave's SN/NESN bits (needed by Eq. 6) and
//    any control procedures (connection/channel-map updates) so the model
//    stays synchronised with the hopping.
//  * INJECT — race the legitimate master (challenge C1/C2): transmit the
//    forged frame at the very start of the slave's widened receive window
//    (predicted anchor − Eq. 5 widening, plus the attacker's own TX-chain
//    latency), then turn the radio around and listen for the slave's
//    response to run the Eq. 7 heuristic (challenge C3).
//
// Injection attempts only run in an event whose *predecessor* was observed
// ("the attacker should have observed in the connection event preceding the
// injection attempt a frame transmitted by the Slave"), so failed attempts
// alternate with re-synchronisation events.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/attacker_radio.hpp"
#include "core/heuristic.hpp"
#include "link/adv_pdu.hpp"
#include "link/channel_selection.hpp"
#include "link/connection.hpp"
#include "link/control_pdu.hpp"

using ble::operator""_ms;
using ble::operator""_us;

namespace injectable {

/// What the sniffer captured about the target connection.
struct SniffedConnection {
    ble::link::ConnectionParams params;
    /// End of the CONNECT_REQ transmission (the Eq. 1 time reference), or the
    /// anchor the recovery procedure synchronised on.
    ble::TimePoint time_reference = 0;
    /// True when parameters come from a sniffed CONNECT_REQ; false when they
    /// were recovered from an already-running connection (in which case the
    /// absolute connection-event counter is unknown).
    bool from_connect_req = true;
    /// For recovered connections: the CSA#1 unmapped channel at
    /// `time_reference` (the channel the recovery locked onto).
    std::uint8_t recovered_unmapped_channel = 0;
};

/// One frame overheard while following the connection.
struct SniffedPacket {
    enum class Sender : std::uint8_t { kMaster, kSlave };
    Sender sender = Sender::kMaster;
    ble::link::DataPdu pdu;
    bool crc_ok = true;
    ble::TimePoint start = 0;
    ble::TimePoint end = 0;
    std::uint8_t channel = 0;
    std::uint16_t event_counter = 0;
};

/// One injection attempt, as the attacker saw it.
struct AttemptReport {
    int attempt = 0;  // 1-based
    std::uint16_t event_counter = 0;
    std::uint8_t channel = 0;
    InjectionObservation observation;
    HeuristicVerdict verdict;
};

struct AttackParams {
        /// Slave SCA assumed when computing the widening (paper: 20 ppm, "the
        /// worst case from the attacker's perspective").
        double assumed_slave_sca_ppm = 20.0;
        /// Extra listening margin beyond the estimated widening when
        /// observing (generous; observation is cheap).
        ble::Duration listen_margin = ble::microseconds(150);
        /// TX-chain turnaround latency: the injected frame leaves the antenna
        /// this long after the ideal window start, modelled half-normal
        /// (mean + |N(0, sd)|). Radio ramp-up and firmware scheduling on the
        /// nRF52840 put this in the microsecond range.
        ble::Duration tx_latency_mean = ble::microseconds(10);
        ble::Duration tx_latency_sd = ble::microseconds(14);
        /// Occasional firmware hiccup: with this probability the injection
        /// leaves up to `hiccup_max` late — at small hop intervals (small
        /// widening) a hiccup forfeits the race outright.
        double hiccup_prob = 0.1;
        ble::Duration hiccup_max = ble::microseconds(60);
        /// Firmware turnaround budget: with probability
        /// turnaround_time / connInterval the dongle has not finished
        /// digesting the previous exchange when the window opens and fires
        /// *late* — forfeiting the race for that attempt. This is the
        /// duty-cycle pressure a real dongle feels at small hop intervals.
        ble::Duration turnaround_time = 3_ms;
    /// Give up following after this many consecutive missed events.
    int max_missed_events = 12;
    /// Track sniffed CONNECTION_UPDATE/CHANNEL_MAP procedures in the hopping
    /// model (true for attacking; an IDS sets false to deliberately stay on
    /// the *old* cadence and see whether the master really applied it).
    bool apply_sniffed_updates = true;
    /// Declare the connection lost when a TERMINATE_IND is sniffed (true for
    /// attacking; an IDS sets false — continued traffic after a terminate is
    /// precisely the slave-hijack signature it wants to observe).
    bool stop_on_terminate = true;
};

class AttackSession {
public:
    using Params = AttackParams;

    /// A session on `target`; with the defaults, an idle session that a
    /// later restart() points at a connection.
    explicit AttackSession(AttackerRadio& radio, SniffedConnection target = {},
                           Params params = {});
    ~AttackSession();

    AttackSession(const AttackSession&) = delete;
    AttackSession& operator=(const AttackSession&) = delete;

    /// Back to the state AttackSession(radio, target, params) constructs, in
    /// place: every pending callback dropped, a running session's radio
    /// handlers unbound, the on_* callbacks cleared, and the frame and
    /// payload buffers kept.  The constructor runs this too.
    void restart(SniffedConnection target, Params params);

    /// Starts following the connection from `target.time_reference`.
    void start();
    /// Releases the radio (handlers unbound); scenario code calls this before
    /// handing the radio to a hijacked-role Connection.
    void stop();

    struct InjectionRequest {
        ble::link::Llid llid = ble::link::Llid::kDataStart;
        ble::Bytes payload;
        int max_attempts = 50;
        /// Completion: success flag + number of attempts consumed.
        std::function<void(bool success, int attempts)> done;
    };
    /// Queues a copy of `request` for injection starting at the next
    /// eligible event (the payload is copied into a buffer the session keeps).
    void inject(const InjectionRequest& request);
    [[nodiscard]] bool injecting() const noexcept { return ss_.injecting; }

    // --- observers / attacker knowledge ---
    std::function<void(const SniffedPacket&)> on_packet;
    std::function<void(const AttemptReport&)> on_attempt;
    /// Connection vanished (TERMINATE sniffed or too many missed events).
    std::function<void()> on_connection_lost;
    /// A master-initiated procedure was sniffed (kept for scenario D).
    std::function<void(const ble::link::ConnectionUpdateInd&)> on_update_sniffed;
    /// Fired after every event with the *new* counter value — scenarios C/D
    /// use it to act exactly at their forged update's instant.
    std::function<void(std::uint16_t)> on_event_advanced;

    /// The most recent injection attempt (valid once on_attempt has fired).
    [[nodiscard]] const std::optional<AttemptReport>& last_attempt() const noexcept {
        return ss_.last_attempt;
    }

    [[nodiscard]] const ble::link::ConnectionParams& params() const noexcept {
        return params_;
    }
    /// Counter of the next connection event the session will process.
    [[nodiscard]] std::uint16_t event_counter() const noexcept { return ss_.event_counter; }
    [[nodiscard]] ble::TimePoint last_anchor() const noexcept { return ss_.anchor; }
    /// Eq. 5 widening the attacker assumes for the next event.
    [[nodiscard]] ble::Duration estimated_widening() const noexcept;
    /// SN/NESN of the most recent slave (resp. master) frame, once seen.
    [[nodiscard]] std::optional<std::pair<bool, bool>> slave_bits() const noexcept {
        return ss_.slave_bits;
    }
    [[nodiscard]] std::optional<std::pair<bool, bool>> master_bits() const noexcept {
        return ss_.master_bits;
    }
    /// Clone of the hopping state (for hijacked-role Connections).
    [[nodiscard]] std::unique_ptr<ble::link::ChannelSelector> clone_selector() const {
        return selector_->clone();
    }
    [[nodiscard]] bool lost() const noexcept { return ss_.lost; }
    [[nodiscard]] AttackerRadio& radio() noexcept { return radio_; }

private:
    enum class Mode : std::uint8_t { kObserve, kInject };

    void schedule_event();
    void begin_observe_event();
    void begin_inject_event();
    void close_observe_event();
    void finish_attempt();
    void handle_rx(const ble::sim::RxFrame& frame);
    void handle_tx_complete();
    void apply_pending_procedures(ble::Duration& delay, bool& update_applied);
    void declare_lost();

    AttackerRadio& radio_;
    Params attack_params_;
    SniffedConnection target_;

    ble::link::ConnectionParams params_;
    ble::link::ChannelSelector* selector_ = nullptr;  ///< held in held_selector_
    ble::link::HeldSelector held_selector_;
    /// Every callback goes through this guard; stop() resets it.
    ble::sim::CallbackGuard guard_{radio_.scheduler()};

    /// Everything restart() sets back: one assignment from these values.
    struct SessionState {
        bool running = false;
        bool lost = false;

        // Timing model.
        std::uint16_t event_counter = 0;
        std::uint8_t channel = 0;
        ble::TimePoint anchor = 0;  // last *observed* anchor
        ble::TimePoint predicted_anchor = 0;
        int missed_events = 0;
        ble::sim::EventId timer = ble::sim::kInvalidEvent;

        // Flow-control knowledge (Eq. 6 inputs).
        std::optional<std::pair<bool, bool>> slave_bits;
        std::optional<std::pair<bool, bool>> master_bits;
        bool slave_bits_fresh = false;  // observed in the immediately previous event

        // In-event state.
        Mode mode = Mode::kObserve;
        int frames_this_event = 0;
        bool anchored_this_event = false;

        // Pending procedures sniffed off the air.
        std::optional<ble::link::ConnectionUpdateInd> pending_update;
        std::optional<ble::link::ChannelMapInd> pending_map;

        // Injection state.
        std::optional<AttemptReport> last_attempt;
        bool injecting = false;  ///< request_ is queued
        int attempts = 0;
        InjectionObservation observation;
        bool awaiting_response = false;
    };
    SessionState ss_;

    // Buffers kept across targets, so that their capacity carries over: the
    // queued request, the forged PDU of the pending attempt, its air frame,
    // and the last received PDU.
    InjectionRequest request_;
    ble::link::DataPdu inject_pdu_;
    ble::sim::AirFrame tx_frame_;
    ble::link::DataPdu rx_pdu_;
};

}  // namespace injectable
