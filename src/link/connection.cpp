#include "link/connection.hpp"

#include <cmath>

#include "obs/work_counters.hpp"
#include "phy/frame.hpp"
#include "phy/spec.hpp"

namespace ble::link {

namespace {
/// Guard added to receive timeouts so a frame that *starts* at the very edge
/// of a window is still waited for (the medium locks at frame start; the
/// `receiving()` re-check below extends until it ends).
constexpr Duration kRxGuard = 30_us;
/// Margin kept free at the end of a connection event when deciding whether
/// another MD exchange fits.
constexpr Duration kEventCloseMargin = 500_us;
/// Slave response timing jitter (active-clock accuracy, ±2 µs per spec).
constexpr Duration kActiveClockJitter = 2_us;
}  // namespace

const char* disconnect_reason_name(DisconnectReason reason) noexcept {
    switch (reason) {
        case DisconnectReason::kLocalTerminate: return "local terminate";
        case DisconnectReason::kRemoteTerminate: return "remote terminate";
        case DisconnectReason::kSupervisionTimeout: return "supervision timeout";
        case DisconnectReason::kMicFailure: return "MIC failure";
        case DisconnectReason::kFailedToEstablish: return "failed to establish";
    }
    return "?";
}

Duration window_widening(double master_sca_ppm, double slave_sca_ppm, Duration span) noexcept {
    const double drift =
        (master_sca_ppm + slave_sca_ppm) * 1e-6 * static_cast<double>(span);
    return static_cast<Duration>(std::llround(drift)) + kWindowWideningConstant;
}

Connection::Connection(sim::RadioDevice& radio, ConnectionConfig config, ConnectionHooks hooks)
    : radio_(radio) {
    restart(std::move(config), std::move(hooks));
}

Connection::~Connection() {
    if (ls_.timer != sim::kInvalidEvent) radio_.scheduler().cancel(ls_.timer);
}

void Connection::restart(ConnectionConfig config, ConnectionHooks hooks) {
    if (ls_.timer != sim::kInvalidEvent) radio_.scheduler().cancel(ls_.timer);
    guard_.reset();
    config_ = std::move(config);
    hooks_ = std::move(hooks);
    crypto_.reset();
    if (config_.selector) {
        selector_ = config_.selector.get();
    } else if (config_.params.use_csa2) {
        selector_ = &held_selector_.csa2(config_.params.access_address,
                                          config_.params.channel_map);
    } else {
        selector_ = &held_selector_.csa1(config_.params.hop_increment,
                                          config_.params.channel_map);
    }
    ls_ = LinkState{};
    ls_.sn = config_.initial_sn;
    ls_.nesn = config_.initial_nesn;
    ls_.event_counter = config_.initial_event_counter;
    tx_queue_.clear();
}

Duration Connection::max_frame_air_time() const noexcept {
    const std::size_t mic = (ls_.encrypted && crypto_) ? crypto_->mic_size() : 0;
    // Whole frame on LE 1M: preamble + AA + header + payload + MIC + CRC.
    return static_cast<Duration>(phy::kPreambleBytesLe1M + phy::kAccessAddressBytes +
                                 phy::kPduHeaderBytes + config_.max_payload + mic +
                                 phy::kCrcBytes) *
           phy::kByteAirtimeLe1M;
}

Duration Connection::base_widening(int events_elapsed) const noexcept {
    const Duration span = static_cast<Duration>(events_elapsed) * config_.params.interval();
    const Duration w =
        window_widening(config_.params.master_sca_ppm(), config_.own_sca_ppm, span);
    return static_cast<Duration>(static_cast<double>(w) * config_.widening_scale);
}

bool Connection::instant_reached(std::uint16_t instant) const noexcept {
    return static_cast<std::uint16_t>(ls_.event_counter - instant) < 0x8000;
}

void Connection::emit_conn_event(obs::ConnEvent::Kind kind, std::string_view reason) {
    auto& bus = radio_.medium().bus();
    if (!bus.active()) return;
    obs::ConnEvent event;
    event.kind = kind;
    event.time = radio_.now();
    event.device = radio_.name();
    event.role = config_.role == Role::kMaster ? 0 : 1;
    event.event_counter = ls_.event_counter;
    event.channel = ls_.channel;
    if (kind == obs::ConnEvent::Kind::kEventClosed) {
        event.anchor_observed = ls_.report.anchor_observed;
        event.pdus_rx = ls_.report.pdus_rx;
        event.pdus_tx = ls_.report.pdus_tx;
        event.crc_errors = ls_.report.crc_errors;
    }
    event.reason = reason;
    bus.emit(event);
}

void Connection::start(TimePoint t_ref) {
    ls_.anchor = t_ref;  // sync reference until the first anchor is observed
    ls_.last_valid_rx = t_ref;
    const Duration offset = kTransmitWindowDelayUncoded +
                            static_cast<Duration>(config_.params.win_offset) * kUnit1250us;
    const Duration window_len =
        static_cast<Duration>(config_.params.win_size) * kUnit1250us;
    ls_.channel = selector_->channel_for_event(ls_.event_counter);
    ls_.report = ConnectionEventReport{};
    ls_.report.event_counter = ls_.event_counter;
    ls_.report.channel = ls_.channel;
    emit_conn_event(obs::ConnEvent::Kind::kOpened);

    if (config_.role == Role::kMaster) {
        // The master owns the window: it transmits at the window start.
        const TimePoint tx_at = t_ref + radio_.sleep_clock().to_global(offset);
        ls_.timer = guard_.at(tx_at, [this] { master_event_begin(); });
    } else {
        ls_.predicted_anchor = t_ref + radio_.sleep_clock().to_global(offset);
        const Duration widening = static_cast<Duration>(
            static_cast<double>(window_widening(config_.params.master_sca_ppm(),
                                                config_.own_sca_ppm, offset)) *
            config_.widening_scale);
        slave_open_window(ls_.predicted_anchor, window_len, widening);
    }
}

void Connection::resume(TimePoint next_anchor) {
    ls_.anchor = radio_.now();
    ls_.last_valid_rx = radio_.now();
    ls_.channel = selector_->channel_for_event(ls_.event_counter);
    ls_.report = ConnectionEventReport{};
    ls_.report.event_counter = ls_.event_counter;
    ls_.report.channel = ls_.channel;
    emit_conn_event(obs::ConnEvent::Kind::kOpened);

    if (config_.role == Role::kMaster) {
        ls_.timer = guard_.at(next_anchor, [this] { master_event_begin(); });
    } else {
        ls_.predicted_anchor = next_anchor;
        const Duration widening = base_widening(1);
        slave_open_window(ls_.predicted_anchor, 0, widening);
    }
}

// --- transmit path ---

const DataPdu& Connection::build_next_pdu() {
    DataPdu& pdu = tx_pdu_;
    ls_.in_flight = !tx_queue_.empty();
    if (ls_.in_flight) {
        const PendingTx& tx = tx_queue_.front();
        pdu.llid = tx.llid;  // a retransmission keeps its SN
        pdu.payload = tx.payload;
    } else {
        pdu.llid = Llid::kDataContinuation;  // empty PDU
        pdu.payload.clear();
    }
    pdu.sn = ls_.sn;
    pdu.nesn = ls_.nesn;
    pdu.md = tx_queue_.size() > 1;
    return pdu;
}

bool Connection::is_start_enc_req(const DataPdu& pdu) noexcept {
    return pdu.llid == Llid::kControl && !pdu.payload.empty() &&
           pdu.payload[0] == static_cast<std::uint8_t>(ControlOpcode::kStartEncReq);
}

void Connection::transmit_pdu(const DataPdu& pdu) {
    ls_.last_tx_md = pdu.md;
    // LL_START_ENC_REQ is defined to travel in plaintext even after the
    // cipher is armed (it is the arming signal) — this also keeps its
    // retransmissions parseable by a peer that has not switched yet.
    std::optional<DataPdu> ciphered;
    if (ls_.encrypted && crypto_ && !pdu.payload.empty() && !is_start_enc_req(pdu)) {
        // AAD is the first header byte with SN/NESN/MD masked (Vol 6 Part E).
        const std::uint8_t aad = static_cast<std::uint8_t>(pdu.llid) & 0b11;
        ciphered = DataPdu{pdu.llid, pdu.nesn, pdu.sn, pdu.md,
                           crypto_->encrypt(aad, pdu.payload, config_.role == Role::kMaster)};
    }
    const DataPdu& wire = ciphered ? *ciphered : pdu;
    phy::make_air_frame(tx_frame_, config_.params.access_address, wire.header(), wire.payload,
                        config_.params.crc_init);
    radio_.transmit(ls_.channel, tx_frame_);
    ++ls_.report.pdus_tx;

    // LL_START_ENC_REQ flips the cipher on for every subsequent PDU in both
    // directions (simplified three-way start; see crypto::LinkEncryption).
    if (crypto_ && !ls_.encrypted && is_start_enc_req(pdu)) {
        ls_.encrypted = true;
    }
}

void Connection::send_data(Llid llid, BytesView payload) {
    if (ls_.closed) return;
    PendingTx& tx = tx_queue_.push_back();
    tx.llid = llid;
    tx.payload.assign(payload.begin(), payload.end());
}

void Connection::send_control(const ControlPdu& pdu) {
    send_data(Llid::kControl, pdu.serialize());
}

void Connection::terminate(std::uint8_t error_code) {
    if (ls_.closed || ls_.terminate_sent) return;
    ls_.terminate_sent = true;
    ls_.pending_terminate_code = error_code;
    send_control(TerminateInd{error_code}.to_control());
}

bool Connection::start_connection_update(ConnectionUpdateInd update,
                                         std::uint16_t instant_delta) {
    if (ls_.closed || config_.role != Role::kMaster || ls_.pending_update) return false;
    if (update.instant == 0) {
        update.instant = static_cast<std::uint16_t>(ls_.event_counter + instant_delta);
    }
    ls_.pending_update = update;
    send_control(update.to_control());
    return true;
}

bool Connection::start_channel_map_update(ChannelMap map, std::uint16_t instant_delta) {
    if (ls_.closed || config_.role != Role::kMaster || ls_.pending_map) return false;
    ChannelMapInd ind;
    ind.map = map;
    ind.instant = static_cast<std::uint16_t>(ls_.event_counter + instant_delta);
    ls_.pending_map = ind;
    send_control(ind.to_control());
    return true;
}

// --- master side ---

void Connection::master_event_begin() {
    if (ls_.closed) return;
    ls_.timer = sim::kInvalidEvent;
    ls_.state = State::kMasterTxAnchor;
    ls_.anchor = radio_.now();  // the anchor point *is* this transmission's start
    ls_.anchor_valid = true;
    ls_.report.anchor = ls_.anchor;
    ls_.report.anchor_observed = true;
    transmit_pdu(build_next_pdu());
}

void Connection::master_continue_exchange() {
    if (ls_.closed) return;
    ls_.state = State::kMasterTxAnchor;  // same tx-then-listen cycle, same anchor
    transmit_pdu(build_next_pdu());
}

// --- slave side ---

void Connection::slave_open_window(TimePoint window_start, Duration window_len,
                                   Duration widening) {
    ls_.state = State::kSlaveWaitAnchor;
    ls_.last_widening = widening;
    const TimePoint listen_from = window_start - widening;
    const TimePoint listen_until = window_start + window_len + widening;

    auto& bus = radio_.medium().bus();
    if (bus.active()) {
        obs::WindowWiden event;
        event.time = radio_.now();
        event.device = radio_.name();
        event.event_counter = ls_.event_counter;
        event.channel = ls_.channel;
        event.widening = widening;
        event.window = window_len;
        event.missed = false;
        bus.emit(event);
    }

    guard_.at(listen_from, [this] {
        if (ls_.state == State::kSlaveWaitAnchor && !ls_.closed) radio_.listen(ls_.channel);
    });

    // The anchor frame must *start* by listen_until; if the radio is locked on
    // a frame at that moment, wait for it to finish instead of aborting.
    ls_.timer = guard_.at(listen_until + kRxGuard, [this] {
        if (ls_.closed || ls_.state != State::kSlaveWaitAnchor) return;
        if (radio_.medium().active_transmissions() > 0 && radio_.receiving()) {
            ls_.timer = guard_.after(
                max_frame_air_time(), [this] { slave_window_timeout(); });
            return;
        }
        slave_window_timeout();
    });
}

void Connection::slave_window_timeout() {
    if (ls_.closed || ls_.state != State::kSlaveWaitAnchor) return;
    ls_.timer = sim::kInvalidEvent;
    radio_.stop_listening();
    ++ls_.events_since_anchor;
    ls_.report.anchor = ls_.predicted_anchor;
    ls_.report.anchor_observed = false;

    auto& bus = radio_.medium().bus();
    if (bus.active()) {
        obs::WindowWiden event;
        event.time = radio_.now();
        event.device = radio_.name();
        event.event_counter = ls_.event_counter;
        event.channel = ls_.channel;
        event.widening = ls_.last_widening;
        event.missed = true;
        bus.emit(event);
    }
    check_supervision(radio_.now());
    if (!ls_.closed) close_event();
}

// --- shared receive path ---

void Connection::handle_rx(const sim::RxFrame& frame) {
    if (ls_.closed) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != config_.params.access_address) return;

    const bool crc_ok = raw->crc_ok(config_.params.crc_init);
    const bool parsed = DataPdu::parse(raw->pdu, rx_pdu_);

    if (config_.role == Role::kSlave) {
        if (ls_.state != State::kSlaveWaitAnchor) return;
        // Any frame with our access address sets the anchor, CRC-valid or not
        // (Vol 6, Part B §4.5.6) — the property the injection exploits. Only
        // the *first* master frame of the event is the anchor: later MD
        // frames in the same event must not shift the timing base.
        if (ls_.timer != sim::kInvalidEvent) {
            radio_.scheduler().cancel(ls_.timer);
            ls_.timer = sim::kInvalidEvent;
        }
        radio_.stop_listening();
        if (!ls_.report.anchor_observed) {
            ls_.anchor = frame.start;
            ls_.anchor_valid = true;
            ls_.predicted_anchor = frame.start;
            ls_.events_since_anchor = 0;
            ls_.report.anchor = ls_.anchor;
            ls_.report.anchor_observed = true;
        }

        if (parsed && crc_ok) {
            process_frame(rx_pdu_, true, frame.start, frame.end);
        } else {
            ++ls_.report.pdus_rx;
            ++ls_.report.crc_errors;
            ls_.peer_md = false;
        }
        if (ls_.closed) return;  // MIC failure terminates without responding

        // Respond T_IFS after the end of the received frame (±active-clock
        // jitter). The response acks (or NAKs, via an unchanged NESN) what we
        // just received — the observable the attacker's Eq. 7 heuristic reads.
        ls_.state = State::kSlaveTxRsp;
        ls_.last_rx_end = frame.end;
        const Duration jitter = static_cast<Duration>(
            radio_.rng().uniform(-static_cast<double>(kActiveClockJitter),
                                 static_cast<double>(kActiveClockJitter)));
        guard_.at(frame.end + kTifs + jitter, [this] {
            if (ls_.closed || ls_.state != State::kSlaveTxRsp) return;
            transmit_pdu(build_next_pdu());
        });
        return;
    }

    // Master waiting for the slave's response.
    if (ls_.state != State::kMasterWaitRsp) return;
    if (ls_.timer != sim::kInvalidEvent) {
        radio_.scheduler().cancel(ls_.timer);
        ls_.timer = sim::kInvalidEvent;
    }
    radio_.stop_listening();
    if (parsed && crc_ok) {
        process_frame(rx_pdu_, true, frame.start, frame.end);
    } else {
        ++ls_.report.pdus_rx;
        ++ls_.report.crc_errors;
        ls_.peer_md = false;
    }
    if (ls_.closed) return;

    // Continue the event with another exchange only if someone *announced*
    // more data via the MD bit: the slave in its response, or we ourselves in
    // the frame we just sent (data queued after that frame left the antenna
    // must wait for the next event — the slave has already stopped
    // listening).
    const bool more = ls_.peer_md || ls_.last_tx_md;
    const TimePoint budget_end = ls_.anchor + config_.params.interval() - kEventCloseMargin;
    const TimePoint exchange_end =
        frame.end + kTifs + max_frame_air_time() + kTifs + max_frame_air_time();
    if (more && exchange_end < budget_end) {
        guard_.at(frame.end + kTifs, [this] {
            if (!ls_.closed && ls_.state == State::kMasterTxAnchor) master_continue_exchange();
        });
        ls_.state = State::kMasterTxAnchor;
        return;
    }
    close_event();
}

void Connection::process_frame(const DataPdu& pdu, bool crc_ok, TimePoint /*rx_start*/,
                               TimePoint rx_end) {
    obs::work::count(obs::work::Site::kConnProcessFrame);
    ++ls_.report.pdus_rx;
    if (!crc_ok) {
        ++ls_.report.crc_errors;
        ls_.peer_md = false;
        return;
    }
    ls_.peer_md = pdu.md;

    // Upper layers see the plaintext: a decrypted copy on an encrypted link,
    // the received PDU itself otherwise.
    const DataPdu* effective = &pdu;
    DataPdu decrypted;
    if (ls_.encrypted && crypto_ && !pdu.payload.empty() && !is_start_enc_req(pdu)) {
        const std::uint8_t aad = static_cast<std::uint8_t>(pdu.llid) & 0b11;
        auto plain = crypto_->decrypt(aad, pdu.payload, config_.role == Role::kSlave);
        if (!plain) {
            // MIC failure: terminate immediately (spec) — the paper's DoS
            // outcome when injecting into an encrypted connection.
            disconnect(DisconnectReason::kMicFailure);
            return;
        }
        decrypted = DataPdu{pdu.llid, pdu.nesn, pdu.sn, pdu.md, std::move(*plain)};
        effective = &decrypted;
    }

    // Acknowledgement: the peer's NESN differing from our SN acks our last PDU.
    if (pdu.nesn != ls_.sn) {
        ls_.sn = !ls_.sn;
        bool was_terminate = false;
        if (ls_.in_flight) {
            const PendingTx& tx = tx_queue_.front();
            was_terminate =
                tx.llid == Llid::kControl && ls_.terminate_sent && !tx.payload.empty() &&
                tx.payload[0] == static_cast<std::uint8_t>(ControlOpcode::kTerminateInd);
            tx_queue_.pop_front();
            ls_.in_flight = false;
        }
        if (was_terminate) {
            disconnect(DisconnectReason::kLocalTerminate);
            return;
        }
    }

    // New data: the peer's SN matching our NESN means this is not a replay.
    if (pdu.sn == ls_.nesn) {
        ls_.nesn = !ls_.nesn;
        ls_.last_valid_rx = rx_end;
        if (effective->llid == Llid::kControl) {
            if (auto control = ControlPdu::parse(effective->payload)) {
                handle_control(*control);
                if (hooks_.on_control) hooks_.on_control(*control);
            }
        } else if (!effective->is_empty()) {
            if (hooks_.on_data) hooks_.on_data(*effective);
        }
    }
}

void Connection::handle_control(const ControlPdu& pdu) {
    switch (pdu.opcode) {
        case ControlOpcode::kTerminateInd:
            // Both roles acknowledge before leaving: the slave with its
            // in-event response, the master with its next anchor frame (whose
            // NESN carries the ack) — then the connection is closed.
            ls_.terminate_after_tx = true;
            break;
        case ControlOpcode::kConnectionUpdateInd:
            if (config_.role == Role::kSlave) {
                if (auto update = ConnectionUpdateInd::parse(pdu);
                    update && !instant_reached(update->instant)) {
                    ls_.pending_update = *update;
                }
            }
            break;
        case ControlOpcode::kChannelMapInd:
            if (config_.role == Role::kSlave) {
                if (auto ind = ChannelMapInd::parse(pdu);
                    ind && !instant_reached(ind->instant)) {
                    ls_.pending_map = *ind;
                }
            }
            break;
        case ControlOpcode::kFeatureReq:
        case ControlOpcode::kSlaveFeatureReq:
            send_control(FeatureSet{0x01}.to_control(ControlOpcode::kFeatureRsp));
            break;
        case ControlOpcode::kVersionInd:
            if (!ls_.version_sent) {
                ls_.version_sent = true;
                send_control(VersionInd{}.to_control());
            }
            break;
        case ControlOpcode::kPingReq:
            send_control(ControlPdu{ControlOpcode::kPingRsp, {}});
            break;
        case ControlOpcode::kClockAccuracyReq:
            send_control(
                ClockAccuracy{ppm_to_sca_field(config_.own_sca_ppm)}.to_control(
                    ControlOpcode::kClockAccuracyRsp));
            break;
        case ControlOpcode::kEncReq:
        case ControlOpcode::kEncRsp:
            // Key material exchange is orchestrated by the host layer via
            // hooks_.on_control (it owns the LTK).
            break;
        case ControlOpcode::kStartEncReq:
            // Received in plaintext; everything after it is encrypted. The
            // host must have attached the session via set_crypto() when it
            // handled LL_ENC_REQ.
            if (crypto_) {
                ls_.encrypted = true;
                send_control(ControlPdu{ControlOpcode::kStartEncRsp, {}});
            }
            break;
        case ControlOpcode::kStartEncRsp:
            if (config_.role == Role::kMaster && !ls_.start_enc_rsp_sent) {
                ls_.start_enc_rsp_sent = true;
                send_control(ControlPdu{ControlOpcode::kStartEncRsp, {}});
            }
            break;
        case ControlOpcode::kLengthReq: {
            ByteWriter w(8);
            w.write_u16(27);
            w.write_u16(27 * 8 + 14);
            w.write_u16(27);
            w.write_u16(27 * 8 + 14);
            send_control(ControlPdu{ControlOpcode::kLengthRsp, w.take()});
            break;
        }
        case ControlOpcode::kUnknownRsp:
        case ControlOpcode::kFeatureRsp:
        case ControlOpcode::kPingRsp:
        case ControlOpcode::kClockAccuracyRsp:
        case ControlOpcode::kLengthRsp:
        case ControlOpcode::kConnectionParamRsp:
        case ControlOpcode::kPhyRsp:
        case ControlOpcode::kRejectInd:
        case ControlOpcode::kRejectExtInd:
            break;  // responses need no reply
        default:
            // Unknown / unhandled opcode: answer LL_UNKNOWN_RSP like real
            // stacks (keeps fuzz-style traffic from wedging the connection).
            if (pdu.opcode != ControlOpcode::kUnknownRsp) {
                send_control(
                    UnknownRsp{static_cast<std::uint8_t>(pdu.opcode)}.to_control());
            }
            break;
    }
}

// --- event close & scheduling ---

void Connection::handle_tx_complete() {
    if (ls_.closed) return;
    if (config_.role == Role::kMaster) {
        if (ls_.state != State::kMasterTxAnchor) return;
        if (ls_.terminate_after_tx) {
            // This anchor frame carried the ack of the peer's TERMINATE_IND.
            disconnect(DisconnectReason::kRemoteTerminate);
            return;
        }
        ls_.state = State::kMasterWaitRsp;
        radio_.listen(ls_.channel);
        ls_.timer = guard_.after(
            kTifs + max_frame_air_time() + kRxGuard, [this] {
                if (ls_.closed || ls_.state != State::kMasterWaitRsp) return;
                if (radio_.receiving()) {
                    // Response started near the deadline: let it finish.
                    ls_.timer = guard_.after(
                        max_frame_air_time(), [this] {
                            if (!ls_.closed && ls_.state == State::kMasterWaitRsp) {
                                radio_.stop_listening();
                                check_supervision(radio_.now());
                                if (!ls_.closed) close_event();
                            }
                        });
                    return;
                }
                radio_.stop_listening();
                check_supervision(radio_.now());
                if (!ls_.closed) close_event();
            });
        return;
    }

    // Slave response completed.
    if (ls_.state != State::kSlaveTxRsp) return;
    if (ls_.terminate_after_tx) {
        disconnect(DisconnectReason::kRemoteTerminate);
        return;
    }
    if (ls_.peer_md) {
        // The master signalled more data: stay in the event and listen for
        // its next frame, expected T_IFS after our response.
        ls_.state = State::kSlaveWaitAnchor;  // reuse the wait-with-timeout path
        radio_.listen(ls_.channel);
        ls_.timer = guard_.after(
            kTifs + max_frame_air_time() + kRxGuard, [this] {
                if (ls_.closed || ls_.state != State::kSlaveWaitAnchor) return;
                radio_.stop_listening();
                close_event();
            });
        return;
    }
    close_event();
}

void Connection::close_event() {
    if (ls_.closed) return;
    ls_.state = State::kIdle;
    radio_.stop_listening();
    emit_conn_event(obs::ConnEvent::Kind::kEventClosed);
    if (hooks_.on_event_closed) hooks_.on_event_closed(ls_.report);
    ++ls_.event_counter;
    schedule_next_event();
}

void Connection::apply_instant_procedures() {
    if (ls_.pending_map && instant_reached(ls_.pending_map->instant)) {
        config_.params.channel_map = ls_.pending_map->map;
        selector_->set_channel_map(ls_.pending_map->map);
        ls_.pending_map.reset();
    }
}

void Connection::schedule_next_event() {
    // Deliberately unspanned (link.conn.process_frame and link.csa*.hop carry
    // the connection profile): this runs once per connection event and its
    // time reads naturally as the enclosing dispatch's self-time.
    // Connection update: the event at `instant` is reached through a transmit
    // window (paper Fig. 2), like connection setup.
    const Duration old_interval = config_.params.interval();
    bool update_now = false;
    ConnectionUpdateInd update{};
    if (ls_.pending_update &&
        static_cast<std::uint16_t>(ls_.pending_update->instant) == ls_.event_counter) {
        update = *ls_.pending_update;
        update_now = true;
        config_.params.win_size = update.win_size;
        config_.params.win_offset = update.win_offset;
        config_.params.hop_interval = update.interval;
        config_.params.latency = update.latency;
        config_.params.timeout = update.timeout;
        ls_.pending_update.reset();
        if (hooks_.on_connection_updated) hooks_.on_connection_updated(update);
    }
    apply_instant_procedures();

    // Slave latency: skip events when idle (never across a procedure instant).
    int skipped = 0;
    if (config_.role == Role::kSlave && config_.params.latency > 0 && !update_now &&
        !ls_.pending_update && !ls_.pending_map && tx_queue_.empty() &&
        ls_.anchor_valid && ls_.events_since_anchor == 0) {
        skipped = config_.params.latency;
        for (int i = 0; i < skipped; ++i) {
            selector_->channel_for_event(ls_.event_counter);
            ++ls_.event_counter;
        }
    }

    ls_.channel = selector_->channel_for_event(ls_.event_counter);
    ls_.report = ConnectionEventReport{};
    ls_.report.event_counter = ls_.event_counter;
    ls_.report.channel = ls_.channel;

    Duration delay;       // from the previous nominal anchor, on local clock
    Duration window_len;  // slave listening window beyond widening
    if (update_now) {
        delay = old_interval + kTransmitWindowDelayUncoded +
                static_cast<Duration>(update.win_offset) * kUnit1250us;
        window_len = static_cast<Duration>(update.win_size) * kUnit1250us;
    } else {
        delay = static_cast<Duration>(1 + skipped) * config_.params.interval();
        window_len = 0;
    }

    if (config_.role == Role::kMaster) {
        const TimePoint next = ls_.anchor + radio_.sleep_clock().to_global(delay);
        ls_.timer = guard_.at(next, [this] { master_event_begin(); });
        return;
    }

    // Slave: predict and widen.
    const TimePoint base = ls_.predicted_anchor;
    ls_.predicted_anchor = base + radio_.sleep_clock().to_global(delay);
    const Duration span = ls_.anchor_valid
                              ? ls_.predicted_anchor - ls_.anchor
                              : delay * (1 + ls_.events_since_anchor);
    const Duration widening = static_cast<Duration>(
        static_cast<double>(window_widening(config_.params.master_sca_ppm(),
                                            config_.own_sca_ppm, span)) *
        config_.widening_scale);
    slave_open_window(ls_.predicted_anchor, window_len, widening);
}

void Connection::check_supervision(TimePoint now) {
    if (now - ls_.last_valid_rx > config_.params.supervision_timeout()) {
        disconnect(ls_.anchor_valid ? DisconnectReason::kSupervisionTimeout
                                 : DisconnectReason::kFailedToEstablish);
    }
}

void Connection::disconnect(DisconnectReason reason) {
    if (ls_.closed) return;
    ls_.closed = true;
    ls_.state = State::kClosed;
    if (ls_.timer != sim::kInvalidEvent) {
        radio_.scheduler().cancel(ls_.timer);
        ls_.timer = sim::kInvalidEvent;
    }
    radio_.stop_listening();
    emit_conn_event(obs::ConnEvent::Kind::kClosed, disconnect_reason_name(reason));
    if (hooks_.on_disconnected) hooks_.on_disconnected(reason);
}

}  // namespace ble::link
