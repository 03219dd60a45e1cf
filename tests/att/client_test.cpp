#include <gtest/gtest.h>

#include <vector>

#include "att/client.hpp"
#include "att/server.hpp"

namespace ble::att {
namespace {

/// Client wired straight to a server (no radio): exercises queueing rules.
struct Loop {
    Loop()
        : client([this](BytesView wire) {
              const AttPdu pdu = *AttPdu::parse(wire);
              sent.push_back(pdu);
              if (!auto_respond) return;
              if (const auto rsp = server.handle_pdu(pdu)) client.handle_pdu(*rsp);
          }) {
        Attribute name;
        name.type = Uuid::from16(0x2A00);
        name.value = {'h', 'i'};
        server.add(std::move(name));
        Attribute ctl;
        ctl.type = Uuid::from16(0xFF01);
        ctl.writable = true;
        server.add(std::move(ctl));
    }

    AttServer server;
    std::vector<AttPdu> sent;
    bool auto_respond = true;
    AttClient client;
};

TEST(AttClientTest, ReadDeliversValue) {
    Loop loop;
    std::optional<Bytes> got;
    loop.client.read(1, [&](std::optional<Bytes> v) { got = std::move(v); });
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, (Bytes{'h', 'i'}));
}

TEST(AttClientTest, ReadErrorDeliversNullopt) {
    Loop loop;
    std::optional<Bytes> got{Bytes{9}};
    loop.client.read(42, [&](std::optional<Bytes> v) { got = std::move(v); });
    EXPECT_FALSE(got.has_value());
}

TEST(AttClientTest, WriteReportsSuccess) {
    Loop loop;
    bool ok = false;
    loop.client.write(2, Bytes{0xAA}, [&](bool v) { ok = v; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(loop.server.find(2)->value, Bytes{0xAA});
}

TEST(AttClientTest, OneRequestInFlight) {
    Loop loop;
    loop.auto_respond = false;
    loop.client.read(1, [](std::optional<Bytes>) {});
    loop.client.read(2, [](std::optional<Bytes>) {});
    // Only the first request hit the wire.
    EXPECT_EQ(loop.sent.size(), 1u);
    EXPECT_TRUE(loop.client.busy());
    EXPECT_EQ(loop.client.queued(), 1u);
    // Answer it: the second goes out.
    const auto rsp = loop.server.handle_pdu(loop.sent[0]);
    loop.client.handle_pdu(*rsp);
    EXPECT_EQ(loop.sent.size(), 2u);
}

TEST(AttClientTest, WriteCommandBypassesQueue) {
    Loop loop;
    loop.auto_respond = false;
    loop.client.read(1, [](std::optional<Bytes>) {});
    loop.client.write_command(2, Bytes{0x01});
    // Both on the wire despite the outstanding request.
    EXPECT_EQ(loop.sent.size(), 2u);
    EXPECT_EQ(loop.sent[1].opcode, Opcode::kWriteCmd);
}

TEST(AttClientTest, NotificationRouted) {
    Loop loop;
    std::optional<std::uint16_t> handle;
    loop.client.on_notification = [&](std::uint16_t h, const Bytes&) { handle = h; };
    loop.client.handle_pdu(make_notification(7, Bytes{1}));
    ASSERT_TRUE(handle.has_value());
    EXPECT_EQ(*handle, 7);
}

TEST(AttClientTest, IndicationConfirmedAutomatically) {
    Loop loop;
    loop.auto_respond = false;
    loop.client.handle_pdu(make_indication(7, Bytes{1}));
    ASSERT_EQ(loop.sent.size(), 1u);
    EXPECT_EQ(loop.sent[0].opcode, Opcode::kHandleValueConfirmation);
}

TEST(AttClientTest, UnsolicitedResponseIgnored) {
    Loop loop;
    loop.client.handle_pdu(make_read_rsp(Bytes{1}));  // nothing in flight
    EXPECT_FALSE(loop.client.busy());
}

TEST(AttClientTest, ExchangeMtu) {
    Loop loop;
    std::uint16_t mtu = 0;
    loop.client.exchange_mtu(185, [&](std::uint16_t v) { mtu = v; });
    EXPECT_EQ(mtu, loop.server.mtu());
}

}  // namespace
}  // namespace ble::att
