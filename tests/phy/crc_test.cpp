#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "phy/crc.hpp"

namespace ble::phy {
namespace {

// Independent bit-serial reference, transcribed from the Core Spec's LFSR
// (Vol 6, Part B, §3.1.1) for x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1:
// register positions 0..23; each PDU bit, LSB first, is XORed with position
// 23; the result feeds position 0 and the taps of the x, x^3, x^4, x^6, x^9
// and x^10 terms as the register shifts up by one.  crc24() carries the
// register in transmission order (position 23 first), so its bit k is
// position 23 - k, both for `init` and for the result.
std::uint32_t reference_crc24(BytesView pdu, std::uint32_t init) {
    std::array<std::uint32_t, 24> position{};
    for (int k = 0; k < 24; ++k) position[23 - k] = (init >> k) & 1;
    for (std::uint8_t byte : pdu) {
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint32_t feedback = position[23] ^ ((byte >> bit) & 1u);
            for (int i = 23; i > 0; --i) position[i] = position[i - 1];
            position[0] = feedback;
            for (int tap : {1, 3, 4, 6, 9, 10}) position[tap] ^= feedback;
        }
    }
    std::uint32_t crc = 0;
    for (int k = 0; k < 24; ++k) crc |= position[23 - k] << k;
    return crc;
}

TEST(Crc24Test, EmptyPduReturnsInit) {
    EXPECT_EQ(crc24({}, 0x555555), 0x555555u);
    EXPECT_EQ(crc24({}, 0xABCDEF), 0xABCDEFu);
}

TEST(Crc24Test, StateStaysWithin24Bits) {
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        Bytes pdu(rng.next_below(40));
        for (auto& b : pdu) b = static_cast<std::uint8_t>(rng.next_below(256));
        EXPECT_LE(crc24(pdu, 0xFFFFFF), 0xFFFFFFu);
    }
}

TEST(Crc24Test, SingleBitFlipChangesCrc) {
    const Bytes pdu{0x02, 0x05, 0x01, 0x02, 0x03, 0x04, 0x05};
    const std::uint32_t reference = crc24(pdu, 0x123456);
    for (std::size_t i = 0; i < pdu.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            Bytes mutated = pdu;
            mutated[i] ^= static_cast<std::uint8_t>(1 << bit);
            EXPECT_NE(crc24(mutated, 0x123456), reference)
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(Crc24Test, DependsOnInit) {
    const Bytes pdu{0x01, 0x00};
    EXPECT_NE(crc24(pdu, 0x555555), crc24(pdu, 0x555556));
}

TEST(Crc24Test, GoldenVector) {
    // Literal values: a change to any output bit of the CRC must be deliberate.
    EXPECT_EQ(crc24(Bytes{0x01, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}, 0x555555), 0xB59579u);
    EXPECT_EQ(crc24(Bytes{0x01, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}, 0x000000), 0x8F3C5Bu);
    EXPECT_EQ(crc24(Bytes{0x01, 0x00}, 0x123456), 0x464560u);
    EXPECT_EQ(crc24(Bytes{0x0F, 0x03, 0xAA, 0xBB, 0xCC}, 0xC0FFEE), 0xCA4C9Du);
}

TEST(Crc24Test, MatchesBitSerialReference) {
    Rng rng(24);
    for (int trial = 0; trial < 10'000; ++trial) {
        Bytes pdu(rng.next_below(256));
        for (auto& b : pdu) b = static_cast<std::uint8_t>(rng.next_below(256));
        const auto init = static_cast<std::uint32_t>(rng.next_below(1u << 24));
        ASSERT_EQ(crc24(pdu, init), reference_crc24(pdu, init))
            << "trial " << trial << ", " << pdu.size() << " bytes, init " << init;
    }
    // Every length from 0 to 300 bytes, each from offsets 0-7 of a buffer:
    // every tail length of an 8-byte stride, at every alignment.
    Bytes buffer(300 + 7);
    for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 300; ++length) {
            const BytesView pdu = BytesView(buffer).subspan(offset, length);
            const auto init = static_cast<std::uint32_t>(rng.next_below(1u << 24));
            ASSERT_EQ(crc24(pdu, init), reference_crc24(pdu, init))
                << "offset " << offset << ", " << length << " bytes, init " << init;
        }
    }
}

// Property: reverse(crc(init, pdu)) == init — this equivalence is exactly
// what lets the sniffer recover an unknown CRCInit from one sniffed frame.
TEST(Crc24Test, ReverseRecoversInit) {
    Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        Bytes pdu(2 + rng.next_below(38));
        for (auto& b : pdu) b = static_cast<std::uint8_t>(rng.next_below(256));
        const auto init = static_cast<std::uint32_t>(rng.next_below(1u << 24));
        const std::uint32_t crc = crc24(pdu, init);
        EXPECT_EQ(crc24_reverse(pdu, crc), init) << "trial " << trial;
    }
}

TEST(Crc24Test, ReverseOfEmptyIsIdentity) {
    EXPECT_EQ(crc24_reverse({}, 0x13579B), 0x13579Bu);
}

TEST(Crc24Test, ForwardThenReverseRoundTripBothDirections) {
    const Bytes pdu{0x0F, 0x03, 0xAA, 0xBB, 0xCC};
    const std::uint32_t init = 0xC0FFEE;
    const std::uint32_t crc = crc24(pdu, init);
    EXPECT_EQ(crc24_reverse(pdu, crc), init);
    EXPECT_EQ(crc24(pdu, crc24_reverse(pdu, crc)), crc);
}

}  // namespace
}  // namespace ble::phy
