// The attacker's radio front-end: a rebindable RadioDevice.
//
// The paper's dongle (§V-E) is one nRF52840 whose firmware switches between
// sniffing, injecting and full role emulation. We model the same physical
// capabilities — half-duplex, one channel at a time, its own drifting sleep
// clock — and let the attack components rebind the rx/tx handlers as the
// attack progresses (follower -> injector -> hijacked-role Connection).
#pragma once

#include <functional>

#include "sim/radio_device.hpp"

namespace injectable {

class AttackerRadio final : public ble::sim::RadioDevice {
public:
    using ble::sim::RadioDevice::RadioDevice;

    /// RadioDevice::restart, with both handlers unbound.
    void restart(ble::Rng rng) {
        ble::sim::RadioDevice::restart(rng);
        rx_handler = nullptr;
        tx_handler = nullptr;
    }

    std::function<void(const ble::sim::RxFrame&)> rx_handler;
    std::function<void()> tx_handler;

    void on_rx(const ble::sim::RxFrame& frame) override {
        if (rx_handler) rx_handler(frame);
    }
    void on_tx_complete() override {
        if (tx_handler) tx_handler();
    }
};

}  // namespace injectable
