#include <gtest/gtest.h>

#include "att/att_pdu.hpp"

namespace ble::att {
namespace {

TEST(AttPduTest, SerializePrependsOpcode) {
    const AttPdu pdu{Opcode::kReadReq, Bytes{0x05, 0x00}};
    EXPECT_EQ(pdu.serialize(), (Bytes{0x0A, 0x05, 0x00}));
}

TEST(AttPduTest, ParseRejectsEmpty) { EXPECT_EQ(AttPdu::parse(Bytes{}), std::nullopt); }

TEST(AttPduTest, WriteReqLayout) {
    // Paper §VI-A: Write Request = opcode | handle | value.
    const AttPdu pdu = make_write_req(0x0021, Bytes{0x01, 0x00});
    EXPECT_EQ(pdu.serialize(), (Bytes{0x12, 0x21, 0x00, 0x01, 0x00}));
}

TEST(AttPduTest, WriteCmdOpcodeHasCommandBit) {
    const AttPdu pdu = make_write_cmd(0x0003, Bytes{0xFF});
    EXPECT_EQ(static_cast<std::uint8_t>(pdu.opcode) & 0x40, 0x40);
}

TEST(AttPduTest, ReadReqRoundTrip) {
    const AttPdu pdu = make_read_req(0x1234);
    const auto hv = HandleValue::parse(pdu);
    ASSERT_TRUE(hv.has_value());
    EXPECT_EQ(hv->handle, 0x1234);
    EXPECT_TRUE(hv->value.empty());
}

TEST(AttPduTest, NotificationRoundTrip) {
    const AttPdu pdu = make_notification(0x000A, Bytes{1, 2, 3});
    EXPECT_EQ(pdu.opcode, Opcode::kHandleValueNotification);
    const auto hv = HandleValue::parse(pdu);
    ASSERT_TRUE(hv.has_value());
    EXPECT_EQ(hv->handle, 0x000A);
    EXPECT_EQ(Bytes(hv->value.begin(), hv->value.end()), (Bytes{1, 2, 3}));
}

TEST(AttPduTest, ErrorRspRoundTrip) {
    const AttPdu pdu = make_error_rsp(Opcode::kWriteReq, 0x0042, ErrorCode::kWriteNotPermitted);
    const auto parsed = ErrorRsp::parse(pdu);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->request, Opcode::kWriteReq);
    EXPECT_EQ(parsed->handle, 0x0042);
    EXPECT_EQ(parsed->error, ErrorCode::kWriteNotPermitted);
}

TEST(AttPduTest, RangeRequestWith16BitUuid) {
    const AttPdu pdu = make_read_by_group_type_req(0x0001, 0xFFFF, Uuid::from16(0x2800));
    const auto parsed = RangeRequest::parse(pdu);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->start, 0x0001);
    EXPECT_EQ(parsed->end, 0xFFFF);
    ASSERT_TRUE(parsed->type.has_value());
    EXPECT_EQ(parsed->type->as16(), 0x2800);
}

TEST(AttPduTest, RangeRequestWithoutUuid) {
    const AttPdu pdu = make_find_information_req(0x0001, 0x0010);
    const auto parsed = RangeRequest::parse(pdu);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->type.has_value());
}

TEST(AttPduTest, RangeRequestRejectsBadUuidWidth) {
    AttPdu pdu{Opcode::kReadByTypeReq, Bytes{0x01, 0x00, 0xFF, 0xFF, 0x28}};  // 1-byte UUID
    EXPECT_EQ(RangeRequest::parse(pdu), std::nullopt);
}

TEST(AttPduTest, OpcodeNames) {
    EXPECT_STREQ(opcode_name(Opcode::kWriteReq), "Write Request");
    EXPECT_STREQ(opcode_name(static_cast<Opcode>(0x77)), "Unknown");
}

}  // namespace
}  // namespace ble::att
