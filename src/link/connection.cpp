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
    : radio_(radio), config_(std::move(config)), hooks_(std::move(hooks)) {
    if (!config_.selector) {
        if (config_.params.use_csa2) {
            config_.selector = std::make_unique<Csa2>(config_.params.access_address,
                                                      config_.params.channel_map);
        } else {
            config_.selector = std::make_unique<Csa1>(config_.params.hop_increment,
                                                      config_.params.channel_map);
        }
    }
    sn_ = config_.initial_sn;
    nesn_ = config_.initial_nesn;
    event_counter_ = config_.initial_event_counter;
}

Connection::~Connection() {
    if (timer_ != sim::kInvalidEvent) radio_.scheduler().cancel(timer_);
}

Duration Connection::max_frame_air_time() const noexcept {
    const std::size_t mic = (encrypted_ && crypto_) ? crypto_->mic_size() : 0;
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
    return static_cast<std::uint16_t>(event_counter_ - instant) < 0x8000;
}

void Connection::emit_conn_event(obs::ConnEvent::Kind kind, std::string_view reason) {
    auto& bus = radio_.medium().bus();
    if (!bus.active()) return;
    obs::ConnEvent event;
    event.kind = kind;
    event.time = radio_.now();
    event.device = radio_.name();
    event.role = config_.role == Role::kMaster ? 0 : 1;
    event.event_counter = event_counter_;
    event.channel = channel_;
    if (kind == obs::ConnEvent::Kind::kEventClosed) {
        event.anchor_observed = report_.anchor_observed;
        event.pdus_rx = report_.pdus_rx;
        event.pdus_tx = report_.pdus_tx;
        event.crc_errors = report_.crc_errors;
    }
    event.reason = reason;
    bus.emit(event);
}

void Connection::start(TimePoint t_ref) {
    anchor_ = t_ref;  // sync reference until the first anchor is observed
    last_valid_rx_ = t_ref;
    const Duration offset = kTransmitWindowDelayUncoded +
                            static_cast<Duration>(config_.params.win_offset) * kUnit1250us;
    const Duration window_len =
        static_cast<Duration>(config_.params.win_size) * kUnit1250us;
    channel_ = config_.selector->channel_for_event(event_counter_);
    report_ = ConnectionEventReport{};
    report_.event_counter = event_counter_;
    report_.channel = channel_;
    emit_conn_event(obs::ConnEvent::Kind::kOpened);

    if (config_.role == Role::kMaster) {
        // The master owns the window: it transmits at the window start.
        const TimePoint tx_at = t_ref + radio_.sleep_clock().to_global(offset);
        timer_ = guard_.at(tx_at, [this] { master_event_begin(); });
    } else {
        predicted_anchor_ = t_ref + radio_.sleep_clock().to_global(offset);
        const Duration widening = static_cast<Duration>(
            static_cast<double>(window_widening(config_.params.master_sca_ppm(),
                                                config_.own_sca_ppm, offset)) *
            config_.widening_scale);
        slave_open_window(predicted_anchor_, window_len, widening);
    }
}

void Connection::resume(TimePoint next_anchor) {
    anchor_ = radio_.now();
    last_valid_rx_ = radio_.now();
    channel_ = config_.selector->channel_for_event(event_counter_);
    report_ = ConnectionEventReport{};
    report_.event_counter = event_counter_;
    report_.channel = channel_;
    emit_conn_event(obs::ConnEvent::Kind::kOpened);

    if (config_.role == Role::kMaster) {
        timer_ = guard_.at(next_anchor, [this] { master_event_begin(); });
    } else {
        predicted_anchor_ = next_anchor;
        const Duration widening = base_widening(1);
        slave_open_window(predicted_anchor_, 0, widening);
    }
}

// --- transmit path ---

const DataPdu& Connection::build_next_pdu() {
    DataPdu& pdu = tx_pdu_;
    in_flight_ = !tx_queue_.empty();
    if (in_flight_) {
        const PendingTx& tx = tx_queue_.front();
        pdu.llid = tx.llid;  // a retransmission keeps its SN
        pdu.payload = tx.payload;
    } else {
        pdu.llid = Llid::kDataContinuation;  // empty PDU
        pdu.payload.clear();
    }
    pdu.sn = sn_;
    pdu.nesn = nesn_;
    pdu.md = tx_queue_.size() > 1;
    return pdu;
}

bool Connection::is_start_enc_req(const DataPdu& pdu) noexcept {
    return pdu.llid == Llid::kControl && !pdu.payload.empty() &&
           pdu.payload[0] == static_cast<std::uint8_t>(ControlOpcode::kStartEncReq);
}

void Connection::transmit_pdu(const DataPdu& pdu) {
    last_tx_md_ = pdu.md;
    // LL_START_ENC_REQ is defined to travel in plaintext even after the
    // cipher is armed (it is the arming signal) — this also keeps its
    // retransmissions parseable by a peer that has not switched yet.
    std::optional<DataPdu> ciphered;
    if (encrypted_ && crypto_ && !pdu.payload.empty() && !is_start_enc_req(pdu)) {
        // AAD is the first header byte with SN/NESN/MD masked (Vol 6 Part E).
        const std::uint8_t aad = static_cast<std::uint8_t>(pdu.llid) & 0b11;
        ciphered = DataPdu{pdu.llid, pdu.nesn, pdu.sn, pdu.md,
                           crypto_->encrypt(aad, pdu.payload, config_.role == Role::kMaster)};
    }
    const DataPdu& wire = ciphered ? *ciphered : pdu;
    phy::make_air_frame(tx_frame_, config_.params.access_address, wire.header(), wire.payload,
                        config_.params.crc_init);
    radio_.transmit(channel_, tx_frame_);
    ++report_.pdus_tx;

    // LL_START_ENC_REQ flips the cipher on for every subsequent PDU in both
    // directions (simplified three-way start; see crypto::LinkEncryption).
    if (crypto_ && !encrypted_ && is_start_enc_req(pdu)) {
        encrypted_ = true;
    }
}

void Connection::send_data(Llid llid, BytesView payload) {
    if (closed_) return;
    PendingTx& tx = tx_queue_.push_back();
    tx.llid = llid;
    tx.payload.assign(payload.begin(), payload.end());
}

void Connection::send_control(const ControlPdu& pdu) {
    send_data(Llid::kControl, pdu.serialize());
}

void Connection::terminate(std::uint8_t error_code) {
    if (closed_ || terminate_sent_) return;
    terminate_sent_ = true;
    pending_terminate_code_ = error_code;
    send_control(TerminateInd{error_code}.to_control());
}

bool Connection::start_connection_update(ConnectionUpdateInd update,
                                         std::uint16_t instant_delta) {
    if (closed_ || config_.role != Role::kMaster || pending_update_) return false;
    if (update.instant == 0) {
        update.instant = static_cast<std::uint16_t>(event_counter_ + instant_delta);
    }
    pending_update_ = update;
    send_control(update.to_control());
    return true;
}

bool Connection::start_channel_map_update(ChannelMap map, std::uint16_t instant_delta) {
    if (closed_ || config_.role != Role::kMaster || pending_map_) return false;
    ChannelMapInd ind;
    ind.map = map;
    ind.instant = static_cast<std::uint16_t>(event_counter_ + instant_delta);
    pending_map_ = ind;
    send_control(ind.to_control());
    return true;
}

// --- master side ---

void Connection::master_event_begin() {
    if (closed_) return;
    timer_ = sim::kInvalidEvent;
    state_ = State::kMasterTxAnchor;
    anchor_ = radio_.now();  // the anchor point *is* this transmission's start
    anchor_valid_ = true;
    report_.anchor = anchor_;
    report_.anchor_observed = true;
    transmit_pdu(build_next_pdu());
}

void Connection::master_continue_exchange() {
    if (closed_) return;
    state_ = State::kMasterTxAnchor;  // same tx-then-listen cycle, same anchor
    transmit_pdu(build_next_pdu());
}

// --- slave side ---

void Connection::slave_open_window(TimePoint window_start, Duration window_len,
                                   Duration widening) {
    state_ = State::kSlaveWaitAnchor;
    last_widening_ = widening;
    const TimePoint listen_from = window_start - widening;
    const TimePoint listen_until = window_start + window_len + widening;

    auto& bus = radio_.medium().bus();
    if (bus.active()) {
        obs::WindowWiden event;
        event.time = radio_.now();
        event.device = radio_.name();
        event.event_counter = event_counter_;
        event.channel = channel_;
        event.widening = widening;
        event.window = window_len;
        event.missed = false;
        bus.emit(event);
    }

    guard_.at(listen_from, [this] {
        if (state_ == State::kSlaveWaitAnchor && !closed_) radio_.listen(channel_);
    });

    // The anchor frame must *start* by listen_until; if the radio is locked on
    // a frame at that moment, wait for it to finish instead of aborting.
    timer_ = guard_.at(listen_until + kRxGuard, [this] {
        if (closed_ || state_ != State::kSlaveWaitAnchor) return;
        if (radio_.medium().active_transmissions() > 0 && radio_.receiving()) {
            timer_ = guard_.after(
                max_frame_air_time(), [this] { slave_window_timeout(); });
            return;
        }
        slave_window_timeout();
    });
}

void Connection::slave_window_timeout() {
    if (closed_ || state_ != State::kSlaveWaitAnchor) return;
    timer_ = sim::kInvalidEvent;
    radio_.stop_listening();
    ++events_since_anchor_;
    report_.anchor = predicted_anchor_;
    report_.anchor_observed = false;

    auto& bus = radio_.medium().bus();
    if (bus.active()) {
        obs::WindowWiden event;
        event.time = radio_.now();
        event.device = radio_.name();
        event.event_counter = event_counter_;
        event.channel = channel_;
        event.widening = last_widening_;
        event.missed = true;
        bus.emit(event);
    }
    check_supervision(radio_.now());
    if (!closed_) close_event();
}

// --- shared receive path ---

void Connection::handle_rx(const sim::RxFrame& frame) {
    if (closed_) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != config_.params.access_address) return;

    const bool crc_ok = raw->crc_ok(config_.params.crc_init);
    const bool parsed = DataPdu::parse(raw->pdu, rx_pdu_);

    if (config_.role == Role::kSlave) {
        if (state_ != State::kSlaveWaitAnchor) return;
        // Any frame with our access address sets the anchor, CRC-valid or not
        // (Vol 6, Part B §4.5.6) — the property the injection exploits. Only
        // the *first* master frame of the event is the anchor: later MD
        // frames in the same event must not shift the timing base.
        if (timer_ != sim::kInvalidEvent) {
            radio_.scheduler().cancel(timer_);
            timer_ = sim::kInvalidEvent;
        }
        radio_.stop_listening();
        if (!report_.anchor_observed) {
            anchor_ = frame.start;
            anchor_valid_ = true;
            predicted_anchor_ = frame.start;
            events_since_anchor_ = 0;
            report_.anchor = anchor_;
            report_.anchor_observed = true;
        }

        if (parsed && crc_ok) {
            process_frame(rx_pdu_, true, frame.start, frame.end);
        } else {
            ++report_.pdus_rx;
            ++report_.crc_errors;
            peer_md_ = false;
        }
        if (closed_) return;  // MIC failure terminates without responding

        // Respond T_IFS after the end of the received frame (±active-clock
        // jitter). The response acks (or NAKs, via an unchanged NESN) what we
        // just received — the observable the attacker's Eq. 7 heuristic reads.
        state_ = State::kSlaveTxRsp;
        last_rx_end_ = frame.end;
        const Duration jitter = static_cast<Duration>(
            radio_.rng().uniform(-static_cast<double>(kActiveClockJitter),
                                 static_cast<double>(kActiveClockJitter)));
        guard_.at(frame.end + kTifs + jitter, [this] {
            if (closed_ || state_ != State::kSlaveTxRsp) return;
            transmit_pdu(build_next_pdu());
        });
        return;
    }

    // Master waiting for the slave's response.
    if (state_ != State::kMasterWaitRsp) return;
    if (timer_ != sim::kInvalidEvent) {
        radio_.scheduler().cancel(timer_);
        timer_ = sim::kInvalidEvent;
    }
    radio_.stop_listening();
    if (parsed && crc_ok) {
        process_frame(rx_pdu_, true, frame.start, frame.end);
    } else {
        ++report_.pdus_rx;
        ++report_.crc_errors;
        peer_md_ = false;
    }
    if (closed_) return;

    // Continue the event with another exchange only if someone *announced*
    // more data via the MD bit: the slave in its response, or we ourselves in
    // the frame we just sent (data queued after that frame left the antenna
    // must wait for the next event — the slave has already stopped
    // listening).
    const bool more = peer_md_ || last_tx_md_;
    const TimePoint budget_end = anchor_ + config_.params.interval() - kEventCloseMargin;
    const TimePoint exchange_end =
        frame.end + kTifs + max_frame_air_time() + kTifs + max_frame_air_time();
    if (more && exchange_end < budget_end) {
        guard_.at(frame.end + kTifs, [this] {
            if (!closed_ && state_ == State::kMasterTxAnchor) master_continue_exchange();
        });
        state_ = State::kMasterTxAnchor;
        return;
    }
    close_event();
}

void Connection::process_frame(const DataPdu& pdu, bool crc_ok, TimePoint /*rx_start*/,
                               TimePoint rx_end) {
    obs::work::count(obs::work::Site::kConnProcessFrame);
    ++report_.pdus_rx;
    if (!crc_ok) {
        ++report_.crc_errors;
        peer_md_ = false;
        return;
    }
    peer_md_ = pdu.md;

    // Upper layers see the plaintext: a decrypted copy on an encrypted link,
    // the received PDU itself otherwise.
    const DataPdu* effective = &pdu;
    DataPdu decrypted;
    if (encrypted_ && crypto_ && !pdu.payload.empty() && !is_start_enc_req(pdu)) {
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
    if (pdu.nesn != sn_) {
        sn_ = !sn_;
        bool was_terminate = false;
        if (in_flight_) {
            const PendingTx& tx = tx_queue_.front();
            was_terminate =
                tx.llid == Llid::kControl && terminate_sent_ && !tx.payload.empty() &&
                tx.payload[0] == static_cast<std::uint8_t>(ControlOpcode::kTerminateInd);
            tx_queue_.pop_front();
            in_flight_ = false;
        }
        if (was_terminate) {
            disconnect(DisconnectReason::kLocalTerminate);
            return;
        }
    }

    // New data: the peer's SN matching our NESN means this is not a replay.
    if (pdu.sn == nesn_) {
        nesn_ = !nesn_;
        last_valid_rx_ = rx_end;
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
            terminate_after_tx_ = true;
            break;
        case ControlOpcode::kConnectionUpdateInd:
            if (config_.role == Role::kSlave) {
                if (auto update = ConnectionUpdateInd::parse(pdu);
                    update && !instant_reached(update->instant)) {
                    pending_update_ = *update;
                }
            }
            break;
        case ControlOpcode::kChannelMapInd:
            if (config_.role == Role::kSlave) {
                if (auto ind = ChannelMapInd::parse(pdu);
                    ind && !instant_reached(ind->instant)) {
                    pending_map_ = *ind;
                }
            }
            break;
        case ControlOpcode::kFeatureReq:
        case ControlOpcode::kSlaveFeatureReq:
            send_control(FeatureSet{0x01}.to_control(ControlOpcode::kFeatureRsp));
            break;
        case ControlOpcode::kVersionInd:
            if (!version_sent_) {
                version_sent_ = true;
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
                encrypted_ = true;
                send_control(ControlPdu{ControlOpcode::kStartEncRsp, {}});
            }
            break;
        case ControlOpcode::kStartEncRsp:
            if (config_.role == Role::kMaster && !start_enc_rsp_sent_) {
                start_enc_rsp_sent_ = true;
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
    if (closed_) return;
    if (config_.role == Role::kMaster) {
        if (state_ != State::kMasterTxAnchor) return;
        if (terminate_after_tx_) {
            // This anchor frame carried the ack of the peer's TERMINATE_IND.
            disconnect(DisconnectReason::kRemoteTerminate);
            return;
        }
        state_ = State::kMasterWaitRsp;
        radio_.listen(channel_);
        timer_ = guard_.after(
            kTifs + max_frame_air_time() + kRxGuard, [this] {
                if (closed_ || state_ != State::kMasterWaitRsp) return;
                if (radio_.receiving()) {
                    // Response started near the deadline: let it finish.
                    timer_ = guard_.after(
                        max_frame_air_time(), [this] {
                            if (!closed_ && state_ == State::kMasterWaitRsp) {
                                radio_.stop_listening();
                                check_supervision(radio_.now());
                                if (!closed_) close_event();
                            }
                        });
                    return;
                }
                radio_.stop_listening();
                check_supervision(radio_.now());
                if (!closed_) close_event();
            });
        return;
    }

    // Slave response completed.
    if (state_ != State::kSlaveTxRsp) return;
    if (terminate_after_tx_) {
        disconnect(DisconnectReason::kRemoteTerminate);
        return;
    }
    if (peer_md_) {
        // The master signalled more data: stay in the event and listen for
        // its next frame, expected T_IFS after our response.
        state_ = State::kSlaveWaitAnchor;  // reuse the wait-with-timeout path
        radio_.listen(channel_);
        timer_ = guard_.after(
            kTifs + max_frame_air_time() + kRxGuard, [this] {
                if (closed_ || state_ != State::kSlaveWaitAnchor) return;
                radio_.stop_listening();
                close_event();
            });
        return;
    }
    close_event();
}

void Connection::close_event() {
    if (closed_) return;
    state_ = State::kIdle;
    radio_.stop_listening();
    emit_conn_event(obs::ConnEvent::Kind::kEventClosed);
    if (hooks_.on_event_closed) hooks_.on_event_closed(report_);
    ++event_counter_;
    schedule_next_event();
}

void Connection::apply_instant_procedures() {
    if (pending_map_ && instant_reached(pending_map_->instant)) {
        config_.params.channel_map = pending_map_->map;
        config_.selector->set_channel_map(pending_map_->map);
        pending_map_.reset();
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
    if (pending_update_ &&
        static_cast<std::uint16_t>(pending_update_->instant) == event_counter_) {
        update = *pending_update_;
        update_now = true;
        config_.params.win_size = update.win_size;
        config_.params.win_offset = update.win_offset;
        config_.params.hop_interval = update.interval;
        config_.params.latency = update.latency;
        config_.params.timeout = update.timeout;
        pending_update_.reset();
        if (hooks_.on_connection_updated) hooks_.on_connection_updated(update);
    }
    apply_instant_procedures();

    // Slave latency: skip events when idle (never across a procedure instant).
    int skipped = 0;
    if (config_.role == Role::kSlave && config_.params.latency > 0 && !update_now &&
        !pending_update_ && !pending_map_ && tx_queue_.empty() &&
        anchor_valid_ && events_since_anchor_ == 0) {
        skipped = config_.params.latency;
        for (int i = 0; i < skipped; ++i) {
            config_.selector->channel_for_event(event_counter_);
            ++event_counter_;
        }
    }

    channel_ = config_.selector->channel_for_event(event_counter_);
    report_ = ConnectionEventReport{};
    report_.event_counter = event_counter_;
    report_.channel = channel_;

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
        const TimePoint next = anchor_ + radio_.sleep_clock().to_global(delay);
        timer_ = guard_.at(next, [this] { master_event_begin(); });
        return;
    }

    // Slave: predict and widen.
    const TimePoint base = predicted_anchor_;
    predicted_anchor_ = base + radio_.sleep_clock().to_global(delay);
    const Duration span = anchor_valid_
                              ? predicted_anchor_ - anchor_
                              : delay * (1 + events_since_anchor_);
    const Duration widening = static_cast<Duration>(
        static_cast<double>(window_widening(config_.params.master_sca_ppm(),
                                            config_.own_sca_ppm, span)) *
        config_.widening_scale);
    slave_open_window(predicted_anchor_, window_len, widening);
}

void Connection::check_supervision(TimePoint now) {
    if (now - last_valid_rx_ > config_.params.supervision_timeout()) {
        disconnect(anchor_valid_ ? DisconnectReason::kSupervisionTimeout
                                 : DisconnectReason::kFailedToEstablish);
    }
}

void Connection::disconnect(DisconnectReason reason) {
    if (closed_) return;
    closed_ = true;
    state_ = State::kClosed;
    if (timer_ != sim::kInvalidEvent) {
        radio_.scheduler().cancel(timer_);
        timer_ = sim::kInvalidEvent;
    }
    radio_.stop_listening();
    emit_conn_event(obs::ConnEvent::Kind::kClosed, disconnect_reason_name(reason));
    if (hooks_.on_disconnected) hooks_.on_disconnected(reason);
}

}  // namespace ble::link
