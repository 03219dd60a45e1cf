// LinkLayerDevice: a radio with the GAP-visible Link-Layer roles
// (paper §III-A) — Peripheral (advertise, accept CONNECT_REQ), Observer
// (scan), Central (initiate) — and host of the Connection state machine once
// a connection is established.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "link/adv_pdu.hpp"
#include "link/connection.hpp"
#include "sim/radio_device.hpp"

namespace ble::link {

/// Default advertising interval (host policy, not a spec mandate; the spec
/// range is 20 ms - 10.24 s, Vol 6 Part B 4.4.2.2).
constexpr Duration kDefaultAdvInterval = 100_ms;

struct LinkLayerDeviceConfig {
    sim::RadioDeviceConfig radio{};
    DeviceAddress address{};
    /// Advertising interval (plus a 0-10 ms pseudo-random advDelay per event).
    Duration adv_interval = kDefaultAdvInterval;
    /// Resume advertising automatically when a connection closes.
    bool auto_readvertise = true;
    /// Passed to Connection (counter-measure evaluation; see ConnectionConfig).
    double widening_scale = 1.0;
    /// SCA advertised in CONNECT_REQ when initiating. 0 = derive from the
    /// actual sleep clock. Real devices declare a conservative (worse) bound
    /// than their typical drift; the window-widening attack surface scales
    /// with the *declared* value.
    double declared_sca_ppm = 0.0;
    /// Advertise / negotiate Channel Selection Algorithm #2 (BLE 5). The
    /// connection uses CSA#2 only when both ends set their ChSel bit.
    bool support_csa2 = false;
};

class LinkLayerDevice : public sim::RadioDevice {
public:
    LinkLayerDevice(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                    LinkLayerDeviceConfig config);
    ~LinkLayerDevice() override;

    /// Back to the state a new device built on `rng` at `address` starts in
    /// (idle, no connection, no advertising data, no observer), keeping its
    /// buffers and its Connection object for the next connection.  The
    /// connection hooks and on_connection_established are wiring and stay.
    void restart(Rng rng, const DeviceAddress& address);

    // --- Peripheral role ---
    void start_advertising(BytesView adv_data);
    void set_scan_response(BytesView scan_rsp_data) {
        scan_rsp_data_.assign(scan_rsp_data.begin(), scan_rsp_data.end());
    }
    void stop_advertising();
    [[nodiscard]] bool advertising() const noexcept { return st_.mode == Mode::kAdvertising; }

    // --- Observer role ---
    using AdvObserver = std::function<void(const AdvPdu&, TimePoint rx_end, double rssi_dbm,
                                           sim::Channel channel)>;
    void start_scanning(AdvObserver observer);
    void stop_scanning();

    // --- Central role ---
    /// Scans for `peer` and sends CONNECT_REQ on its next advertisement.
    /// Missing access address / CRCInit in `params` are generated; the SCA
    /// field is filled from this device's own sleep clock.
    void connect_to(const DeviceAddress& peer, ConnectionParams params);

    // --- Connection plumbing ---
    /// Hooks installed on the next Connection this device creates.
    void set_connection_hooks(ConnectionHooks hooks) { user_hooks_ = std::move(hooks); }
    /// Fired when a connection reaches the Link Layer (either role).
    std::function<void(Connection&)> on_connection_established;

    [[nodiscard]] Connection* connection() noexcept {
        return st_.connected ? connection_.get() : nullptr;
    }
    [[nodiscard]] const DeviceAddress& address() const noexcept { return config_.address; }

    void on_rx(const sim::RxFrame& frame) override;
    void on_tx_complete() override;

private:
    enum class Mode : std::uint8_t {
        kIdle,
        kAdvertising,
        kScanning,
        kInitiating,
        kConnected,
    };

    void advertising_event();
    void advertise_on_next_channel();
    void scan_rotate();
    void handle_adv_channel_rx(const sim::RxFrame& frame);
    /// Sends adv_tx_ as an advertising-channel frame on `channel`.
    void transmit_adv(sim::Channel channel);
    void become_slave(const ConnectReqPdu& req, TimePoint connect_req_end);
    void become_master(TimePoint connect_req_end);
    /// Starts a connection on connection_, built on first use and restarted
    /// in place after that.
    void open_connection(ConnectionConfig config, TimePoint connect_req_end);
    ConnectionHooks make_effective_hooks();
    void cleanup_connection();

    LinkLayerDeviceConfig config_;

    /// Everything restart() sets back: one assignment from these values.
    struct State {
        Mode mode = Mode::kIdle;
        // Advertising.
        int adv_channel_index = 0;  // 0..2 -> channels 37..39
        sim::EventId adv_timer = sim::kInvalidEvent;
        bool sending_scan_rsp = false;
        // Scanning.
        sim::EventId scan_timer = sim::kInvalidEvent;
        int scan_channel_index = 0;
        // Initiating.
        std::optional<DeviceAddress> connect_target;
        ConnectionParams initiate_params{};
        bool connect_req_in_flight = false;
        /// connection_ holds the live connection.
        bool connected = false;
    };
    State st_;

    // Buffers kept across connections and restarts.
    Bytes adv_data_;
    Bytes scan_rsp_data_;
    AdvPdu adv_tx_;         ///< the advertising PDU being sent
    sim::AirFrame adv_frame_;
    AdvPdu adv_rx_;         ///< the last advertising PDU received
    ConnectReqPdu connect_req_;
    std::unique_ptr<Connection> connection_;

    AdvObserver adv_observer_;
    ConnectionHooks user_hooks_;
};

}  // namespace ble::link
