#include "sim/radio_device.hpp"

namespace ble::sim {

RadioDevice::RadioDevice(Scheduler& scheduler, RadioMedium& medium, Rng rng,
                         RadioDeviceConfig config)
    : scheduler_(scheduler),
      medium_(medium),
      rng_(rng),
      config_(std::move(config)),
      sleep_clock_(config_.clock, rng_.fork()) {
    medium_.attach(*this);
}

RadioDevice::~RadioDevice() { medium_.detach(*this); }

std::uint64_t RadioDevice::transmit(Channel channel, AirFrame frame) {
    return medium_.transmit(*this, channel, std::move(frame));
}

}  // namespace ble::sim
