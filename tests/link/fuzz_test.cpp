// Parser robustness: every decoder that touches over-the-air bytes must
// reject garbage gracefully (a corrupted frame may carry *any* byte pattern
// past the CRC with probability 2^-24 — and the attacker's sniffer parses
// frames that failed their CRC on purpose).
#include <gtest/gtest.h>

#include "att/att_pdu.hpp"
#include "att/server.hpp"
#include "common/rng.hpp"
#include "dongle/protocol.hpp"
#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "phy/frame.hpp"

namespace ble {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
    Bytes out(rng.next_below(max_len + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
    return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, LinkLayerParsersNeverMisbehave) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    for (int i = 0; i < 2000; ++i) {
        const Bytes data = random_bytes(rng, 64);
        // None of these may crash. Parsers canonicalise reserved header bits,
        // so the property is serialize/parse *idempotence*, not raw identity.
        if (const auto pdu = link::DataPdu::parse(data)) {
            const Bytes canon = pdu->serialize();
            const auto again = link::DataPdu::parse(canon);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->serialize(), canon);
            EXPECT_EQ(again->payload, pdu->payload);
        }
        if (const auto adv = link::AdvPdu::parse(data)) {
            const Bytes canon = adv->serialize();
            const auto again = link::AdvPdu::parse(canon);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->serialize(), canon);
            EXPECT_EQ(again->payload, adv->payload);
        }
        (void)link::ControlPdu::parse(data);
        (void)phy::split_frame(data);
    }
}

TEST_P(ParserFuzzTest, TypedControlParsersRejectWrongShapes) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    for (int i = 0; i < 2000; ++i) {
        link::ControlPdu pdu;
        pdu.opcode = static_cast<link::ControlOpcode>(rng.next_below(40));
        pdu.ctr_data = random_bytes(rng, 30);
        // Typed parsers must agree on opcode and size or return nullopt.
        if (const auto update = link::ConnectionUpdateInd::parse(pdu)) {
            EXPECT_EQ(pdu.opcode, link::ControlOpcode::kConnectionUpdateInd);
            EXPECT_EQ(pdu.ctr_data.size(), 11u);
            EXPECT_EQ(update->to_control().ctr_data, pdu.ctr_data);
        }
        if (const auto map = link::ChannelMapInd::parse(pdu)) {
            EXPECT_EQ(pdu.ctr_data.size(), 7u);
            // The channel map masks to its 37 valid bits: idempotence, not
            // identity.
            const auto canon = map->to_control();
            const auto again = link::ChannelMapInd::parse(canon);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->map, map->map);
            EXPECT_EQ(again->instant, map->instant);
        }
        (void)link::TerminateInd::parse(pdu);
        (void)link::EncReq::parse(pdu);
        (void)link::EncRsp::parse(pdu);
        (void)link::VersionInd::parse(pdu);
        (void)link::ClockAccuracy::parse(pdu);
    }
}

TEST_P(ParserFuzzTest, ConnectReqParserRoundTripsOrRejects) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
    for (int i = 0; i < 1000; ++i) {
        link::AdvPdu pdu;
        pdu.type = link::AdvPduType::kConnectReq;
        pdu.ch_sel = rng.chance(0.5);
        pdu.tx_add = rng.chance(0.5);
        pdu.payload = random_bytes(rng, 40);
        if (const auto req = link::ConnectReqPdu::parse(pdu)) {
            EXPECT_EQ(pdu.payload.size(), 34u);
            // Channel-map bits beyond 37 are canonicalised away.
            const auto back = req->to_adv_pdu();
            EXPECT_EQ(back.ch_sel, pdu.ch_sel);
            const auto again = link::ConnectReqPdu::parse(back);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->to_adv_pdu().payload, back.payload);
            EXPECT_EQ(again->params.access_address, req->params.access_address);
            EXPECT_EQ(again->params.hop_increment, req->params.hop_increment);
        }
    }
}

TEST_P(ParserFuzzTest, InPlaceAdvParsersMatchTheOwningOnes) {
    // The caller-owned forms parse into objects reused from input to input,
    // as the link layer and the sniffer reuse theirs: whatever the previous
    // input left there, each must accept exactly what the owning parser
    // accepts and fill the same fields.
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863);
    link::AdvPdu adv;
    link::AdvPdu header;
    link::ConnectReqPdu req;
    link::ConnectReqPdu req_from_view;
    for (int i = 0; i < 2000; ++i) {
        Bytes data = random_bytes(rng, 40);
        // Half the inputs are well-formed CONNECT_REQ frames, so the
        // CONNECT_REQ parsers see their accepting path too.
        if (rng.chance(0.5) && data.size() >= 2) {
            data.resize(36);
            data[0] = static_cast<std::uint8_t>((data[0] & 0xF0) |
                                                static_cast<std::uint8_t>(
                                                    link::AdvPduType::kConnectReq));
            data[1] = 34;
        }
        const auto owned = link::AdvPdu::parse(data);
        ASSERT_EQ(link::AdvPdu::parse(data, adv), owned.has_value());
        ASSERT_EQ(link::AdvPdu::parse_header(data, header), owned.has_value());
        if (!owned) continue;
        EXPECT_EQ(adv.type, owned->type);
        EXPECT_EQ(adv.ch_sel, owned->ch_sel);
        EXPECT_EQ(adv.tx_add, owned->tx_add);
        EXPECT_EQ(adv.rx_add, owned->rx_add);
        EXPECT_EQ(adv.payload, owned->payload);
        EXPECT_EQ(header.type, owned->type);
        EXPECT_EQ(header.ch_sel, owned->ch_sel);
        EXPECT_EQ(header.tx_add, owned->tx_add);
        EXPECT_EQ(header.rx_add, owned->rx_add);

        const auto owned_req = link::ConnectReqPdu::parse(*owned);
        ASSERT_EQ(link::ConnectReqPdu::parse(adv, req), owned_req.has_value());
        ASSERT_EQ(link::ConnectReqPdu::parse(header, BytesView(data).subspan(2), req_from_view),
                  owned_req.has_value());
        if (!owned_req) continue;
        for (const link::ConnectReqPdu* in_place : {&req, &req_from_view}) {
            EXPECT_EQ(in_place->initiator, owned_req->initiator);
            EXPECT_EQ(in_place->advertiser, owned_req->advertiser);
            EXPECT_EQ(in_place->to_adv_pdu().serialize(), owned_req->to_adv_pdu().serialize());
            EXPECT_EQ(in_place->params.master_sca, owned_req->params.master_sca);
            EXPECT_EQ(in_place->params.use_csa2, owned_req->params.use_csa2);
        }
    }
}

TEST_P(ParserFuzzTest, AttServerSurvivesGarbageRequests) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
    att::AttServer server;
    att::Attribute attr;
    attr.type = att::Uuid::from16(0x2A00);
    attr.value = {'x'};
    attr.writable = true;
    server.add(std::move(attr));

    for (int i = 0; i < 2000; ++i) {
        const Bytes wire = random_bytes(rng, 48);
        const auto pdu = att::AttPdu::parse(wire);
        if (!pdu) continue;
        const auto response = server.handle_pdu(*pdu);
        // Requests (command bit clear) always get *some* answer.
        if (response) {
            EXPECT_FALSE(response->serialize().empty());
        }
    }
    // The database itself must be intact.
    EXPECT_NE(server.find(1), nullptr);
}

TEST_P(ParserFuzzTest, DongleProtocolSurvivesGarbageFrames) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 49157);
    for (int i = 0; i < 2000; ++i) {
        const Bytes wire = random_bytes(rng, 64);
        if (const auto cmd = injectable::dongle::Command::parse(wire)) {
            EXPECT_EQ(cmd->serialize(), wire);
        }
        if (const auto ntf = injectable::dongle::Notification::parse(wire)) {
            EXPECT_EQ(ntf->serialize(), wire);
        }
        ByteReader r1(wire);
        (void)injectable::dongle::read_sniffed_connection(r1);
        ByteReader r2(wire);
        (void)injectable::dongle::read_sniffed_packet(r2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ble
