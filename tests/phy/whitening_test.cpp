#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "phy/whitening.hpp"

namespace ble::phy {
namespace {

// Independent bit-serial reference, transcribed from the Core Spec's
// whitening LFSR (Vol 6, Part B, §3.2) for x^7 + x^4 + 1: register
// positions 0..6; position 0 is preset to 1 and positions 1..6 hold the
// channel index, MSB first.  Each data bit, LSB first, is XORed with
// position 6; as the register shifts up by one, position 6 feeds position 0
// and is XORed into position 4.
Bytes reference_whiten(std::uint8_t channel, Bytes data) {
    std::array<unsigned, 7> position{};
    position[0] = 1;
    for (int k = 1; k <= 6; ++k) position[k] = (channel >> (6 - k)) & 1u;
    for (auto& byte : data) {
        for (int bit = 0; bit < 8; ++bit) {
            const unsigned out = position[6];
            byte ^= static_cast<std::uint8_t>(out << bit);
            for (int i = 6; i > 0; --i) position[i] = position[i - 1];
            position[0] = out;
            position[4] ^= out;
        }
    }
    return data;
}

TEST(WhiteningTest, IsAnInvolution) {
    Rng rng(3);
    for (std::uint8_t channel = 0; channel < 40; ++channel) {
        Bytes data(32);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
        const Bytes original = data;
        whiten(channel, data);
        whiten(channel, data);
        EXPECT_EQ(data, original) << "channel " << int(channel);
    }
}

TEST(WhiteningTest, ActuallyScrambles) {
    const Bytes zeros(16, 0x00);
    for (std::uint8_t channel = 0; channel < 40; ++channel) {
        EXPECT_NE(whitened(channel, zeros), zeros) << "channel " << int(channel);
    }
}

TEST(WhiteningTest, ChannelDependent) {
    const Bytes data(16, 0x00);
    // The whitening sequence differs between channels (LFSR seeded by index).
    EXPECT_NE(whitened(37, data), whitened(38, data));
    EXPECT_NE(whitened(0, data), whitened(1, data));
}

TEST(WhiteningTest, SequenceIsXorMask) {
    // whiten(x) ^ whiten(0) == x: whitening is a fixed XOR stream.
    const Bytes zeros(8, 0x00);
    const Bytes data{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04};
    const Bytes mask = whitened(37, zeros);
    const Bytes out = whitened(37, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(out[i] ^ mask[i], data[i]);
    }
}

TEST(WhiteningTest, GoldenSequenceChannel37) {
    // Literal first eight bytes of the channel-37 mask: a change to any bit
    // of the whitening sequence must be deliberate.
    EXPECT_EQ(whitened(37, Bytes(8, 0x00)),
              (Bytes{0x8D, 0xD2, 0x57, 0xA1, 0x3D, 0xA7, 0x66, 0xB0}));
}

TEST(WhiteningTest, MatchesBitSerialReference) {
    Rng rng(32);
    for (std::uint8_t channel = 0; channel < 40; ++channel) {
        for (int trial = 0; trial < 50; ++trial) {
            Bytes data(rng.next_below(64));
            for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
            ASSERT_EQ(whitened(channel, data), reference_whiten(channel, data))
                << "channel " << int(channel) << ", trial " << trial;
        }
    }
}

TEST(WhiteningTest, SevenBitPeriod) {
    // x^7 + x^4 + 1 is maximal: the bit sequence repeats every 127 bits,
    // so bytes repeat with period 127 bytes * 8 bits / gcd -> check 127-bit
    // periodicity directly on a long run.
    const Bytes mask = whitened(5, Bytes(64, 0x00));
    auto bit = [&](std::size_t i) { return (mask[i / 8] >> (i % 8)) & 1; };
    for (std::size_t i = 0; i + 127 < mask.size() * 8; ++i) {
        EXPECT_EQ(bit(i), bit(i + 127)) << "bit " << i;
    }
}

}  // namespace
}  // namespace ble::phy
