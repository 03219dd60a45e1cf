// Spec-anchored Link-Layer constants (Vol 6 Part B), the named homes for the
// channel-count and PDU-size numbers the S1 lint rule bans as bare literals
// in src/link.  Each value is tied to the Core Specification by a
// static_assert so a drifted constant fails the build, not a replay.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ble::link {

/// Data channels 0..36 (Vol 6 Part B §1.4.1): the hopping set both channel
/// selection algorithms remap onto.
constexpr std::uint8_t kNumDataChannels = 37;
/// Advertising channels 37..39.
constexpr std::uint8_t kAdvChannelMin = 37;
constexpr std::uint8_t kAdvChannelMax = 39;
constexpr std::uint8_t kNumAdvChannels = 3;
/// All BLE channels, data + advertising.
constexpr std::uint8_t kNumChannelsTotal = 40;

static_assert(kNumDataChannels == 37, "Vol 6 Part B 1.4.1: data channels 0-36");
static_assert(kAdvChannelMin == kNumDataChannels && kAdvChannelMax == 39,
              "Vol 6 Part B 1.4.1: advertising channels 37-39");
static_assert(kNumDataChannels + kNumAdvChannels == kNumChannelsTotal,
              "Vol 6 Part B 1.4: 40 RF channels in total");

/// Largest advertising-PDU payload: AdvA (6 octets) + AdvData (<= 31 octets)
/// (Vol 6 Part B §2.3.1).
constexpr std::size_t kDeviceAddressBytes = 6;
constexpr std::size_t kMaxAdvDataBytes = 31;
constexpr std::size_t kMaxAdvPayloadBytes = 37;

static_assert(kMaxAdvPayloadBytes == kDeviceAddressBytes + kMaxAdvDataBytes,
              "Vol 6 Part B 2.3.1: AdvA(6) + AdvData(<=31) = 37 octets");

/// Largest data-channel PDU payload (Vol 6 Part B §2.4), MIC excluded.
constexpr std::size_t kMaxDataPayloadBytes = 251;
/// connInterval = Hop Interval x 1.25 ms, from 7.5 ms to 4.0 s
/// (Vol 6 Part B §4.5.1).
constexpr std::uint16_t kMinHopInterval = 6;
constexpr std::uint16_t kMaxHopInterval = 3200;

static_assert(kMaxDataPayloadBytes == 251, "Vol 6 Part B 2.4: payload <= 251 octets");
static_assert(kMinHopInterval * 125 == 750 && kMaxHopInterval * 125 == 400'000,
              "Vol 6 Part B 4.5.1: connInterval 7.5 ms .. 4.0 s in 1.25 ms units");

}  // namespace ble::link
