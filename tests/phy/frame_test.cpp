#include <gtest/gtest.h>

#include "phy/crc.hpp"
#include "phy/frame.hpp"

namespace ble::phy {
namespace {

TEST(FrameTest, TableILayout) {
    // Paper Table I: | AA 4 bytes | PDU variable | CRC 3 bytes | (+ preamble
    // carried as timing, not bytes).
    const Bytes pdu{0x01, 0x02, 0xAA, 0xBB};  // header len=2, 2-byte payload
    const auto frame = make_air_frame(0x12345678, pdu, 0xABCDEF);
    ASSERT_EQ(frame.bytes.size(), 4 + 4 + 3u);
    EXPECT_EQ(frame.bytes[0], 0x78);  // AA little-endian
    EXPECT_EQ(frame.bytes[3], 0x12);
    EXPECT_EQ(frame.sync_bytes, 4u);
    EXPECT_EQ(frame.preamble_time, 8_us);
    EXPECT_EQ(frame.byte_time, 8_us);
}

TEST(FrameTest, RoundTripThroughSplit) {
    const Bytes pdu{0x0D, 0x03, 0x01, 0x02, 0x03};
    const auto frame = make_air_frame(0xAF9A9CD4, pdu, 0x555555);
    const auto raw = split_frame(frame.bytes);
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(raw->access_address, 0xAF9A9CD4u);
    EXPECT_EQ(Bytes(raw->pdu.begin(), raw->pdu.end()), pdu);
    EXPECT_TRUE(raw->crc_ok(0x555555));
}

TEST(FrameTest, CrcFailsWithWrongInit) {
    const Bytes pdu{0x01, 0x00};
    const auto frame = make_air_frame(0xAF9A9CD4, pdu, 0x111111);
    const auto raw = split_frame(frame.bytes);
    ASSERT_TRUE(raw.has_value());
    EXPECT_TRUE(raw->crc_ok(0x111111));
    EXPECT_FALSE(raw->crc_ok(0x222222));
}

TEST(FrameTest, CorruptedPayloadFailsCrc) {
    const Bytes pdu{0x02, 0x04, 0xDE, 0xAD, 0xBE, 0xEF};
    auto frame = make_air_frame(0xAF9A9CD4, pdu, 0x555555);
    frame.bytes[7] ^= 0x20;  // flip a payload bit
    const auto raw = split_frame(frame.bytes);
    ASSERT_TRUE(raw.has_value());
    EXPECT_FALSE(raw->crc_ok(0x555555));
}

TEST(FrameTest, SplitRejectsTruncated) {
    EXPECT_EQ(split_frame(Bytes{0x01, 0x02, 0x03}), std::nullopt);
    // Length byte says 10 but buffer holds 0 payload bytes.
    Bytes bad{0, 0, 0, 0, 0x01, 0x0A, 0xEE, 0xEE, 0xEE};
    EXPECT_EQ(split_frame(bad), std::nullopt);
}

TEST(FrameTest, SplitRejectsCorruptedLengthByte) {
    const Bytes pdu{0x01, 0x04, 0x01, 0x02, 0x03, 0x04};
    auto frame = make_air_frame(0xAF9A9CD4, pdu, 0x555555);
    frame.bytes[5] = 0x20;  // inflate the length field past the buffer
    EXPECT_EQ(split_frame(frame.bytes), std::nullopt);
}

TEST(FrameTest, EmptyPduFrame) {
    const Bytes pdu{0x01, 0x00};  // empty data PDU
    const auto frame = make_air_frame(0xAF9A9CD4, pdu, 0x555555);
    EXPECT_EQ(frame.duration(), 80_us);  // 10 bytes at LE 1M
    const auto raw = split_frame(frame.bytes);
    ASSERT_TRUE(raw.has_value());
    EXPECT_TRUE(Bytes(raw->pdu.begin(), raw->pdu.end()) == pdu);
}

}  // namespace
}  // namespace ble::phy
