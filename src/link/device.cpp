#include "link/device.hpp"

#include "phy/access_address.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"
#include "phy/spec.hpp"

namespace ble::link {

namespace {
constexpr sim::Channel kAdvChannels[3] = {37, 38, 39};
/// Longest advertising-channel frame: CONNECT_REQ (2 + 34 byte PDU).
constexpr Duration kMaxAdvFrameAir =
    static_cast<Duration>(phy::kPreambleBytesLe1M + phy::kAccessAddressBytes +
                          phy::kPduHeaderBytes + 34 + phy::kCrcBytes) *
    phy::kByteAirtimeLe1M;
constexpr Duration kAdvRxGuard = 30_us;
/// Scanner dwell per advertising channel (host policy, like scanInterval).
constexpr Duration kScanRotateInterval = 30_ms;

}  // namespace

LinkLayerDevice::LinkLayerDevice(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                                 LinkLayerDeviceConfig config)
    : sim::RadioDevice(scheduler, medium, rng, config.radio), config_(std::move(config)) {}

LinkLayerDevice::~LinkLayerDevice() = default;

void LinkLayerDevice::restart(Rng rng, const DeviceAddress& address) {
    sim::RadioDevice::restart(rng);
    config_.address = address;
    st_ = State{};
    adv_data_.clear();
    scan_rsp_data_.clear();
    adv_observer_ = nullptr;
}

// --- Peripheral ---

void LinkLayerDevice::start_advertising(BytesView adv_data) {
    adv_data_.assign(adv_data.begin(), adv_data.end());
    if (st_.mode == Mode::kConnected) return;  // resumes on disconnect
    st_.mode = Mode::kAdvertising;
    advertising_event();
}

void LinkLayerDevice::stop_advertising() {
    if (st_.mode != Mode::kAdvertising) return;
    st_.mode = Mode::kIdle;
    scheduler().cancel(st_.adv_timer);
    st_.adv_timer = sim::kInvalidEvent;
    stop_listening();
}

void LinkLayerDevice::advertising_event() {
    if (st_.mode != Mode::kAdvertising) return;
    st_.adv_channel_index = 0;
    advertise_on_next_channel();
}

void LinkLayerDevice::advertise_on_next_channel() {
    if (st_.mode != Mode::kAdvertising) return;
    if (st_.adv_channel_index >= 3) {
        // End of the advertising event; schedule the next one with the
        // spec's 0-10 ms pseudo-random advDelay.
        const Duration delay =
            config_.adv_interval + static_cast<Duration>(rng().uniform(0.0, 10e6));
        st_.adv_timer = schedule_local(delay, [this] { advertising_event(); });
        return;
    }
    AdvDataPdu::write(adv_tx_, AdvPduType::kAdvInd, config_.address, adv_data_);
    adv_tx_.ch_sel = config_.support_csa2;
    transmit_adv(kAdvChannels[st_.adv_channel_index]);
}

void LinkLayerDevice::transmit_adv(sim::Channel channel) {
    phy::make_air_frame(adv_frame_, phy::kAdvertisingAccessAddress, adv_tx_.header(),
                        adv_tx_.payload, phy::kAdvertisingCrcInit);
    transmit(channel, adv_frame_);
}

void LinkLayerDevice::handle_adv_channel_rx(const sim::RxFrame& frame) {
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != phy::kAdvertisingAccessAddress) return;
    if (!raw->crc_ok(phy::kAdvertisingCrcInit)) return;
    if (!AdvPdu::parse(raw->pdu, adv_rx_)) return;
    const AdvPdu& pdu = adv_rx_;

    if (st_.mode == Mode::kScanning) {
        if (adv_observer_) adv_observer_(pdu, frame.end, frame.rssi_dbm, frame.channel);
        return;
    }

    if (st_.mode == Mode::kAdvertising) {
        if (pdu.type == AdvPduType::kConnectReq) {
            if (ConnectReqPdu::parse(pdu, connect_req_) &&
                connect_req_.advertiser == config_.address) {
                become_slave(connect_req_, frame.end);
            }
            return;
        }
        if (pdu.type == AdvPduType::kScanReq && !scan_rsp_data_.empty()) {
            // SCAN_REQ payload: scanner address (6) + advertiser address (6).
            if (raw->pdu.size() == 2 + 12) {
                ByteReader r(BytesView(raw->pdu).subspan(8));
                if (auto target = DeviceAddress::read_from(
                        r, pdu.rx_add ? AddressType::kRandom : AddressType::kPublic);
                    target && *target == config_.address) {
                    st_.sending_scan_rsp = true;
                    scheduler().cancel(st_.adv_timer);
                    const sim::Channel channel = kAdvChannels[st_.adv_channel_index];
                    // Fire-and-forget: the lambda re-checks the mode, so a
                    // stale response is a no-op and cancellation is never
                    // needed.
                    (void)scheduler().schedule_at(frame.end + kTifs, [this, channel] {
                        if (st_.mode != Mode::kAdvertising) return;
                        AdvDataPdu::write(adv_tx_, AdvPduType::kScanRsp, config_.address,
                                          scan_rsp_data_);
                        transmit_adv(channel);
                    });
                }
            }
        }
        return;
    }

    if (st_.mode == Mode::kInitiating && st_.connect_target && !st_.connect_req_in_flight) {
        if (pdu.type == AdvPduType::kAdvInd &&
            AdvDataPdu::advertiser_of(pdu) == st_.connect_target) {
            st_.connect_req_in_flight = true;
            stop_listening();
            // CSA#2 when both ends advertise support (ChSel bits).
            st_.initiate_params.use_csa2 = config_.support_csa2 && pdu.ch_sel;
            const sim::Channel channel = frame.channel;
            // Fire-and-forget, guarded by the mode check.
            (void)scheduler().schedule_at(frame.end + kTifs, [this, channel] {
                if (st_.mode != Mode::kInitiating) return;
                connect_req_.initiator = config_.address;
                connect_req_.advertiser = *st_.connect_target;
                connect_req_.params = st_.initiate_params;
                connect_req_.write_to(adv_tx_);
                transmit_adv(channel);
            });
        }
    }
}

// --- Observer ---

void LinkLayerDevice::start_scanning(AdvObserver observer) {
    adv_observer_ = std::move(observer);
    st_.mode = Mode::kScanning;
    st_.scan_channel_index = 0;
    listen(kAdvChannels[0]);
    st_.scan_timer = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

void LinkLayerDevice::scan_rotate() {
    if (st_.mode != Mode::kScanning && st_.mode != Mode::kInitiating) return;
    st_.scan_channel_index = (st_.scan_channel_index + 1) % 3;
    if (!transmitting() && !st_.connect_req_in_flight) {
        listen(kAdvChannels[st_.scan_channel_index]);
    }
    st_.scan_timer = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

void LinkLayerDevice::stop_scanning() {
    if (st_.mode == Mode::kScanning) st_.mode = Mode::kIdle;
    scheduler().cancel(st_.scan_timer);
    st_.scan_timer = sim::kInvalidEvent;
    stop_listening();
}

// --- Central ---

void LinkLayerDevice::connect_to(const DeviceAddress& peer, ConnectionParams params) {
    st_.connect_target = peer;
    if (params.access_address == 0) params.access_address = phy::random_access_address(rng());
    if (params.crc_init == 0) params.crc_init = static_cast<std::uint32_t>(rng().next_below(1u << 24));
    params.master_sca = ppm_to_sca_field(
        config_.declared_sca_ppm > 0 ? config_.declared_sca_ppm : sleep_clock().sca_ppm());
    st_.initiate_params = params;
    st_.connect_req_in_flight = false;
    st_.mode = Mode::kInitiating;
    st_.scan_channel_index = 0;
    listen(kAdvChannels[0]);
    st_.scan_timer = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

// --- Connection plumbing ---

ConnectionHooks LinkLayerDevice::make_effective_hooks() {
    ConnectionHooks hooks = user_hooks_;
    hooks.on_disconnected = [this](DisconnectReason reason) {
        if (user_hooks_.on_disconnected) user_hooks_.on_disconnected(reason);
        // Defer the cleanup: we are inside a Connection member function.
        // An immediate one-shot, so there is nothing to cancel.
        (void)scheduler().schedule_after(0, [this] { cleanup_connection(); });
    };
    return hooks;
}

void LinkLayerDevice::cleanup_connection() {
    st_.connected = false;
    st_.mode = Mode::kIdle;
    if (config_.auto_readvertise && !adv_data_.empty()) {
        st_.mode = Mode::kAdvertising;
        advertising_event();
    }
}

void LinkLayerDevice::open_connection(ConnectionConfig config, TimePoint connect_req_end) {
    config.own_sca_ppm = sleep_clock().sca_ppm();
    config.widening_scale = config_.widening_scale;
    if (connection_) {
        connection_->restart(std::move(config), make_effective_hooks());
    } else {
        connection_ = std::make_unique<Connection>(*this, std::move(config), make_effective_hooks());
    }
    st_.connected = true;
    connection_->start(connect_req_end);
    if (on_connection_established) on_connection_established(*connection_);
}

void LinkLayerDevice::become_slave(const ConnectReqPdu& req, TimePoint connect_req_end) {
    scheduler().cancel(st_.adv_timer);
    st_.adv_timer = sim::kInvalidEvent;
    stop_listening();
    st_.mode = Mode::kConnected;

    ConnectionConfig cfg;
    cfg.role = Role::kSlave;
    cfg.params = req.params;
    open_connection(std::move(cfg), connect_req_end);
}

void LinkLayerDevice::become_master(TimePoint connect_req_end) {
    scheduler().cancel(st_.scan_timer);
    st_.scan_timer = sim::kInvalidEvent;
    stop_listening();
    st_.mode = Mode::kConnected;

    ConnectionConfig cfg;
    cfg.role = Role::kMaster;
    cfg.params = st_.initiate_params;
    open_connection(std::move(cfg), connect_req_end);
}

// --- radio callbacks ---

void LinkLayerDevice::on_rx(const sim::RxFrame& frame) {
    if (st_.mode == Mode::kConnected && st_.connected) {
        connection_->handle_rx(frame);
        return;
    }
    handle_adv_channel_rx(frame);
}

void LinkLayerDevice::on_tx_complete() {
    if (st_.mode == Mode::kConnected && st_.connected) {
        connection_->handle_tx_complete();
        return;
    }
    if (st_.mode == Mode::kAdvertising) {
        if (st_.sending_scan_rsp) {
            st_.sending_scan_rsp = false;
            ++st_.adv_channel_index;
            advertise_on_next_channel();
            return;
        }
        // ADV_IND sent: listen for CONNECT_REQ / SCAN_REQ for T_IFS + frame.
        listen(kAdvChannels[st_.adv_channel_index]);
        st_.adv_timer = scheduler().schedule_after(
            kTifs + kMaxAdvFrameAir + kAdvRxGuard, [this] {
                if (st_.mode != Mode::kAdvertising) return;
                if (receiving()) {
                    st_.adv_timer = scheduler().schedule_after(kMaxAdvFrameAir, [this] {
                        if (st_.mode != Mode::kAdvertising) return;
                        stop_listening();
                        ++st_.adv_channel_index;
                        advertise_on_next_channel();
                    });
                    return;
                }
                stop_listening();
                ++st_.adv_channel_index;
                advertise_on_next_channel();
            });
        return;
    }
    if (st_.mode == Mode::kInitiating && st_.connect_req_in_flight) {
        become_master(now());
        return;
    }
    if (st_.mode == Mode::kScanning) {
        // e.g. after an active-scan SCAN_REQ: resume listening for the
        // SCAN_RSP on the same channel.
        listen(kAdvChannels[st_.scan_channel_index]);
    }
}

}  // namespace ble::link
