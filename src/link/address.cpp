#include "link/address.hpp"

#include <cstdio>

namespace ble::link {

std::optional<DeviceAddress> DeviceAddress::from_string(const std::string& text,
                                                        AddressType type) {
    std::array<unsigned, 6> v{};
    if (std::sscanf(text.c_str(), "%x:%x:%x:%x:%x:%x", &v[0], &v[1], &v[2], &v[3], &v[4],
                    &v[5]) != 6) {
        return std::nullopt;
    }
    std::array<std::uint8_t, 6> octets{};
    for (int i = 0; i < 6; ++i) {
        if (v[static_cast<std::size_t>(i)] > 0xFF) return std::nullopt;
        // Printed order is MSB first; storage is LSB first.
        octets[static_cast<std::size_t>(5 - i)] =
            static_cast<std::uint8_t>(v[static_cast<std::size_t>(i)]);
    }
    return DeviceAddress(octets, type);
}

DeviceAddress DeviceAddress::random_static(Rng& rng) {
    std::array<std::uint8_t, 6> octets{};
    for (auto& b : octets) b = static_cast<std::uint8_t>(rng.next_below(256));
    octets[5] |= 0xC0;  // random static: two MSBs of the address set
    return DeviceAddress(octets, AddressType::kRandom);
}

void DeviceAddress::write_to(ByteWriter& w) const {
    w.write_bytes(BytesView(octets_.data(), octets_.size()));
}

std::optional<DeviceAddress> DeviceAddress::read_from(ByteReader& r, AddressType type) {
    if (r.remaining() < 6) {
        (void)r.skip(6);  // marks the reader failed, as a short read does
        return std::nullopt;
    }
    std::array<std::uint8_t, 6> octets{};
    for (auto& octet : octets) octet = *r.read_u8();
    return DeviceAddress(octets, type);
}

std::string DeviceAddress::to_string() const {
    char buf[18];
    std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets_[5], octets_[4],
                  octets_[3], octets_[2], octets_[1], octets_[0]);
    return buf;
}

}  // namespace ble::link
