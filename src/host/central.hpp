// Central host: scans, connects, runs a GATT client over L2CAP, and can
// start Link-Layer encryption when it shares an LTK with the peer. The
// paper's experiments use a Central as the legitimate "Master" (a Mirage
// simulated Central in Exp. 1/2, a smartphone in Exp. 3) — here it is the
// same class with different connection parameters.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "att/client.hpp"
#include "crypto/link_encryption.hpp"
#include "host/l2cap.hpp"
#include "link/device.hpp"

namespace ble::host {

struct CentralConfig {
    std::string name = "central";
    sim::RadioDeviceConfig radio{};
    /// SCA declared in CONNECT_REQ (0 = actual crystal bound).
    double declared_sca_ppm = 0.0;
    /// Negotiate Channel Selection Algorithm #2 when the peer supports it.
    bool support_csa2 = false;
};

class Central {
public:
    Central(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
            CentralConfig config);

    /// Back to the state a Central built on `rng` starts in, keeping its
    /// device, ATT client and L2CAP buffers; the on_* callbacks are cleared.
    /// Restart the medium first (see RadioDevice::restart).
    void restart(Rng rng);

    /// Scans for `peer` and connects with `params` (AA/CRCInit auto-filled).
    void connect(const link::DeviceAddress& peer, link::ConnectionParams params = {});

    [[nodiscard]] att::AttClient& gatt() noexcept { return att_client_; }
    [[nodiscard]] link::LinkLayerDevice& device() noexcept { return *device_; }
    [[nodiscard]] link::Connection* connection() noexcept { return device_->connection(); }
    [[nodiscard]] bool connected() const noexcept { return st_.connected; }

    /// Starts the LL encryption procedure as master (LL_ENC_REQ ...).
    void start_encryption(const crypto::Aes128Key& ltk);
    [[nodiscard]] bool encrypted() const noexcept;

    std::function<void()> on_connected;
    std::function<void(link::DisconnectReason)> on_disconnected;
    std::function<void(const link::ConnectionEventReport&)> on_event_closed;

private:
    void wire_hooks();
    void handle_control(const link::ControlPdu& pdu);

    CentralConfig config_;
    std::unique_ptr<link::LinkLayerDevice> device_;
    att::AttClient att_client_;
    L2capChannel l2cap_;  ///< carries ATT over the current connection
    Rng rng_;

    /// Everything restart() sets back: one assignment from these values.
    struct HostState {
        bool connected = false;
        std::optional<crypto::Aes128Key> ltk;
        std::optional<link::EncReq> enc_req;  // material we sent, awaiting EncRsp
    };
    HostState st_;
};

}  // namespace ble::host
