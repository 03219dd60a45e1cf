#include <gtest/gtest.h>

#include <string>

#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "link/trace.hpp"
#include "phy/access_address.hpp"
#include "phy/frame.hpp"

namespace ble::link {
namespace {

TEST(DescribeFrameTest, AdvertisingFrames) {
    AdvDataPdu adv;
    adv.type = AdvPduType::kAdvInd;
    adv.advertiser = DeviceAddress{};
    adv.data = make_adv_name("x");
    const auto frame = phy::make_air_frame(phy::kAdvertisingAccessAddress,
                                           adv.to_adv_pdu().serialize(), 0x555555);
    EXPECT_EQ(describe_frame(frame.bytes), "ADV_IND (9B)");
}

TEST(DescribeFrameTest, ChSelBitShown) {
    AdvPdu pdu;
    pdu.type = AdvPduType::kConnectReq;
    pdu.ch_sel = true;
    pdu.payload = Bytes(34, 0);
    const auto frame = phy::make_air_frame(phy::kAdvertisingAccessAddress,
                                           pdu.serialize(), 0x555555);
    // An all-zero 34B payload parses as a CONNECT_REQ, so the parameter
    // detail (AA/hop/increment/window) rides along.
    EXPECT_EQ(describe_frame(frame.bytes),
              "CONNECT_REQ (34B) ChSel AA=00000000 hop=0 inc=0 win=0+0");
}

TEST(DescribeFrameTest, DataAndControlFrames) {
    DataPdu empty = DataPdu::empty(true, false);
    auto frame = phy::make_air_frame(0xAF9A9CD4, empty.serialize(), 0x123456);
    EXPECT_EQ(describe_frame(frame.bytes), "DATA sn=0 nesn=1 empty PDU");

    DataPdu ctl;
    ctl.llid = Llid::kControl;
    ctl.sn = true;
    ctl.payload = TerminateInd{0x13}.to_control().serialize();
    frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
    EXPECT_EQ(describe_frame(frame.bytes), "DATA sn=1 nesn=0 LL_TERMINATE_IND error=0x13");

    DataPdu l2cap;
    l2cap.llid = Llid::kDataStart;
    l2cap.md = true;
    l2cap.payload = Bytes(9, 0x00);
    frame = phy::make_air_frame(0xAF9A9CD4, l2cap.serialize(), 0x123456);
    EXPECT_EQ(describe_frame(frame.bytes), "DATA sn=0 nesn=0 MD L2CAP start 9B");
}

TEST(DescribeFrameTest, InstantBearingControlPdusShowTheirParameters) {
    // The paper's injections race connection instants (Fig. 2/7), so the
    // decoder surfaces them for capture analysis.
    ConnectionUpdateInd update;
    update.interval = 24;
    update.instant = 150;
    DataPdu ctl;
    ctl.llid = Llid::kControl;
    ctl.payload = update.to_control().serialize();
    auto frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
    EXPECT_EQ(describe_frame(frame.bytes),
              "DATA sn=0 nesn=0 LL_CONNECTION_UPDATE_IND interval=24 instant=150");

    ChannelMapInd remap;
    remap.instant = 77;
    ctl.payload = remap.to_control().serialize();
    frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
    EXPECT_EQ(describe_frame(frame.bytes),
              "DATA sn=0 nesn=0 LL_CHANNEL_MAP_IND instant=77");
}

TEST(DescribeFrameTest, AllControlOpcodes) {
    constexpr ControlOpcode kOpcodes[] = {
        ControlOpcode::kConnectionUpdateInd, ControlOpcode::kChannelMapInd,
        ControlOpcode::kTerminateInd,        ControlOpcode::kEncReq,
        ControlOpcode::kEncRsp,              ControlOpcode::kStartEncReq,
        ControlOpcode::kStartEncRsp,         ControlOpcode::kUnknownRsp,
        ControlOpcode::kFeatureReq,          ControlOpcode::kFeatureRsp,
        ControlOpcode::kPauseEncReq,         ControlOpcode::kPauseEncRsp,
        ControlOpcode::kVersionInd,          ControlOpcode::kRejectInd,
        ControlOpcode::kSlaveFeatureReq,     ControlOpcode::kConnectionParamReq,
        ControlOpcode::kConnectionParamRsp,  ControlOpcode::kRejectExtInd,
        ControlOpcode::kPingReq,             ControlOpcode::kPingRsp,
        ControlOpcode::kLengthReq,           ControlOpcode::kLengthRsp,
        ControlOpcode::kPhyReq,              ControlOpcode::kPhyRsp,
        ControlOpcode::kPhyUpdateInd,        ControlOpcode::kMinUsedChannelsInd,
        ControlOpcode::kClockAccuracyReq,    ControlOpcode::kClockAccuracyRsp,
    };
    for (const ControlOpcode opcode : kOpcodes) {
        DataPdu ctl;
        ctl.llid = Llid::kControl;
        ctl.payload = ControlPdu{opcode, {}}.serialize();
        const auto frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
        const std::string desc = describe_frame(frame.bytes);
        EXPECT_NE(desc.find(control_opcode_name(opcode)), std::string::npos)
            << "opcode 0x" << std::hex << static_cast<int>(opcode) << ": " << desc;
    }
}

TEST(DescribeFrameTest, UnknownControlOpcode) {
    DataPdu ctl;
    ctl.llid = Llid::kControl;
    ctl.payload = Bytes{0xFF};  // no such opcode
    const auto frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
    EXPECT_NE(describe_frame(frame.bytes).find("LL_UNKNOWN"), std::string::npos);
}

TEST(DescribeFrameTest, EmptyControlPayload) {
    // A control PDU with no opcode byte parses to nothing but must still
    // produce a readable line.
    DataPdu ctl;
    ctl.llid = Llid::kControl;
    const auto frame = phy::make_air_frame(0xAF9A9CD4, ctl.serialize(), 0x123456);
    EXPECT_NE(describe_frame(frame.bytes).find("LL control (empty)"), std::string::npos);
}

TEST(DescribeFrameTest, MalformedBytes) {
    EXPECT_NE(describe_frame(Bytes{1, 2, 3}).find("malformed"), std::string::npos);
    EXPECT_EQ(describe_frame(Bytes{}), "malformed (0B)");
    EXPECT_EQ(describe_frame(Bytes{0xD4}), "malformed (1B)");
    // AA + CRC but a zero-length PDU region.
    EXPECT_NE(describe_frame(Bytes(7, 0x00)).find("malformed"), std::string::npos);
}

TEST(DescribeFrameTest, TruncatedDataPdu) {
    // A full data frame with its payload cut past the header's claimed length
    // must decode as malformed DATA, not crash or misreport.
    DataPdu l2cap;
    l2cap.llid = Llid::kDataStart;
    l2cap.payload = Bytes(9, 0x00);
    const auto frame = phy::make_air_frame(0xAF9A9CD4, l2cap.serialize(), 0x123456);
    Bytes cut(frame.bytes.begin(), frame.bytes.begin() + 8);
    EXPECT_NE(describe_frame(cut).find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace ble::link
