// Peripheral host: a complete GATT-server device — advertising, accepting
// connections, serving ATT over L2CAP, answering the encryption-start
// procedure when it holds an LTK. The emulated lightbulb/keyfob/smartwatch
// are a Peripheral plus a gatt::*Profile.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "att/server.hpp"
#include "crypto/link_encryption.hpp"
#include "host/l2cap.hpp"
#include "link/device.hpp"

namespace ble::host {

struct PeripheralConfig {
    std::string name = "peripheral";
    sim::RadioDeviceConfig radio{};
    Duration adv_interval = 100_ms;
    /// Counter-measure knob (paper §VIII, solution 1); 1.0 = spec widening.
    double widening_scale = 1.0;
    /// Advertise Channel Selection Algorithm #2 support (BLE 5).
    bool support_csa2 = false;
};

class Peripheral {
public:
    Peripheral(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
               PeripheralConfig config);

    /// Back to the state a Peripheral built on `rng` starts in: attribute
    /// handles kept and their values restored, buffers kept, no LTK, the
    /// on_* callbacks cleared.  Restart the medium first (see
    /// RadioDevice::restart).
    void restart(Rng rng);

    /// Begins advertising (name in the AD payload).
    void start();

    [[nodiscard]] att::AttServer& att_server() noexcept { return att_server_; }
    [[nodiscard]] link::LinkLayerDevice& device() noexcept { return *device_; }
    [[nodiscard]] link::Connection* connection() noexcept { return device_->connection(); }
    [[nodiscard]] bool connected() const noexcept { return st_.connected; }
    [[nodiscard]] const link::DeviceAddress& address() const noexcept {
        return device_->address();
    }

    /// Pushes a Handle Value Notification to the connected client.
    void notify(std::uint16_t handle, BytesView value);

    /// Arms the LTK so the peripheral accepts LL_ENC_REQ (the paper's
    /// counter-measure 2: "systematically activate the encryption").
    void set_ltk(const crypto::Aes128Key& ltk) { st_.ltk = ltk; }

    std::function<void()> on_connected;
    std::function<void(link::DisconnectReason)> on_disconnected;
    /// Diagnostics pass-through.
    std::function<void(const link::ConnectionEventReport&)> on_event_closed;

private:
    void wire_hooks();
    void handle_att_sdu(BytesView sdu);
    void handle_control(const link::ControlPdu& pdu);

    PeripheralConfig config_;
    Bytes adv_data_;  ///< the AD payload start() advertises
    std::unique_ptr<link::LinkLayerDevice> device_;
    att::AttServer att_server_;
    L2capChannel l2cap_;  ///< carries ATT over the current connection
    Bytes att_tx_;        ///< wire form of the PDU being sent
    Rng rng_;

    /// Everything restart() sets back: one assignment from these values.
    struct HostState {
        bool connected = false;
        std::optional<crypto::Aes128Key> ltk;
    };
    HostState st_;
};

}  // namespace ble::host
