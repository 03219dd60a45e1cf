#include "ids/detector.hpp"

#include <cmath>
#include <cstdio>

#include "obs/bus.hpp"

namespace ble::ids {

using injectable::AttackSession;
using injectable::SniffedPacket;

const char* alert_type_name(AlertType type) noexcept {
    switch (type) {
        case AlertType::kAnchorJitter: return "anchor timing anomaly";
        case AlertType::kCrcBurst: return "CRC failure burst";
        case AlertType::kSpuriousTerminate: return "spurious LL_TERMINATE_IND";
        case AlertType::kForgedUpdate: return "forged CONNECTION_UPDATE";
        case AlertType::kDoubleAnchor: return "double anchor frame";
        case AlertType::kConnectionLost: return "connection lost";
    }
    return "?";
}

InjectionDetector::InjectionDetector(injectable::AttackerRadio& radio,
                                     injectable::SniffedConnection target,
                                     DetectorParams params)
    : radio_(radio), params_(params) {
    AttackSession::Params session_params;
    // The monitor deliberately stays on the pre-update cadence: a legitimate
    // update silences the old cadence, a forged one does not (the legitimate
    // master never heard of it).
    session_params.apply_sniffed_updates = false;
    // Keep following after a sniffed TERMINATE: post-terminate traffic is the
    // slave-hijack signature. A real termination just goes quiet and the
    // session expires through missed events.
    session_params.stop_on_terminate = false;
    session_params.max_missed_events = 16;
    session_ = std::make_unique<AttackSession>(radio_, std::move(target), session_params);
}

InjectionDetector::~InjectionDetector() { stop(); }

void InjectionDetector::start() {
    session_->on_packet = [this](const SniffedPacket& packet) { handle_packet(packet); };
    session_->on_update_sniffed = [this](const link::ConnectionUpdateInd& update) {
        update_seen_ = update;
        old_interval_ = session_->params().hop_interval;
        old_cadence_after_instant_ = 0;
    };
    session_->on_connection_lost = [this] {
        if (terminate_seen_) return;  // orderly termination, not an attack
        if (update_seen_) return;     // legitimate update moved the cadence;
                                      // a production monitor would re-sync on
                                      // the new parameters here
        raise(AlertType::kConnectionLost, session_->event_counter(),
              "lost sync with the monitored connection");
    };
    session_->start();
}

void InjectionDetector::stop() {
    if (session_) session_->stop();
}

void InjectionDetector::raise(AlertType type, std::uint16_t event_counter,
                              std::string_view detail) {
    ++alerts_;
    auto& bus = radio_.medium().bus();
    if (bus.active()) {
        obs::IdsAlert event;
        event.time = radio_.now();
        event.type = static_cast<std::uint8_t>(type);
        event.type_name = alert_type_name(type);
        event.event_counter = event_counter;
        event.detail = detail;
        bus.emit(event);
    }
}

void InjectionDetector::handle_packet(const SniffedPacket& packet) {
    const auto& params = session_->params();

    if (packet.sender != SniffedPacket::Sender::kMaster) return;
    ++events_;

    // --- double anchor (paper's "double frames" signature) ---
    if (last_anchor_ && packet.event_counter == last_anchor_event_ &&
        packet.start - *last_anchor_ > params_.double_anchor_gap) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "second anchor-like frame %.0f us into the same event",
                      to_us(packet.start - *last_anchor_));
        raise(AlertType::kDoubleAnchor, packet.event_counter, buf);
    }

    // --- anchor jitter ---
    if (last_anchor_) {
        const auto elapsed_events =
            static_cast<std::uint16_t>(packet.event_counter - last_anchor_event_);
        if (elapsed_events > 0) {
            const Duration expected =
                static_cast<Duration>(elapsed_events) * params.interval();
            const Duration actual = packet.start - *last_anchor_;
            // Legitimate drift is bounded by the SCAs declared in CONNECT_REQ
            // (the same bound the slave's window widening uses).
            const double bound_ppm = params.master_sca_ppm() + 50.0;
            const auto tolerance = static_cast<Duration>(
                bound_ppm * 1e-6 * static_cast<double>(expected)) +
                params_.jitter_margin;
            if (std::llabs(actual - expected) > tolerance) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "anchor delta %.1f us off nominal (tolerance %.1f us)",
                              to_us(actual - expected), to_us(tolerance));
                raise(AlertType::kAnchorJitter, packet.event_counter, buf);
            }
        }
    }
    last_anchor_ = packet.start;
    last_anchor_event_ = packet.event_counter;

    // --- CRC burst ---
    crc_history_.push_back(packet.crc_ok);
    while (crc_history_.size() > static_cast<std::size_t>(params_.crc_window_events)) {
        crc_history_.pop_front();
    }
    int failures = 0;
    for (bool ok : crc_history_) failures += ok ? 0 : 1;
    if (failures >= params_.crc_burst_threshold) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%d CRC-failed anchor frames in the last %zu events",
                      failures, crc_history_.size());
        raise(AlertType::kCrcBurst, packet.event_counter, buf);
        crc_history_.clear();  // re-arm
    }

    // --- spurious terminate: master keeps polling after a TERMINATE_IND ---
    if (packet.crc_ok && packet.pdu.is_control() && !packet.pdu.payload.empty()) {
        const auto opcode = static_cast<link::ControlOpcode>(packet.pdu.payload[0]);
        if (opcode == link::ControlOpcode::kTerminateInd) {
            terminate_seen_ = true;
            terminate_event_ = packet.event_counter;
        }
    }
    if (terminate_seen_ &&
        static_cast<std::uint16_t>(packet.event_counter - terminate_event_) >=
            params_.terminate_grace_events) {
        raise(AlertType::kSpuriousTerminate, packet.event_counter,
              "master still active after LL_TERMINATE_IND: slave hijack suspected");
        terminate_seen_ = false;  // one alert per terminate
    }

    // --- forged update: old cadence survives past the instant ---
    if (update_seen_ &&
        static_cast<std::uint16_t>(packet.event_counter - update_seen_->instant) <
            0x8000 &&
        packet.event_counter != update_seen_->instant) {
        // We deliberately kept following the old cadence; this master frame
        // arrived on it after the instant.
        if (++old_cadence_after_instant_ >= params_.update_grace_events) {
            raise(AlertType::kForgedUpdate, packet.event_counter,
                  "anchors continue at the old cadence after the update instant: "
                  "the master never sent that update");
            update_seen_.reset();
        }
    }
}

}  // namespace ble::ids
