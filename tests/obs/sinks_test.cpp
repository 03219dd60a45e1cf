#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/sinks.hpp"

namespace ble::obs {
namespace {

/// One event's line as a JsonlTraceSink writes it, without the newline.
std::string to_jsonl(const Event& event, FrameDescriber describe = nullptr) {
    JsonlTraceSink sink(describe);
    sink.on_event(event);
    std::string line = sink.take();
    EXPECT_TRUE(sink.str().empty());
    line.pop_back();
    return line;
}

TEST(ToJsonlTest, TxStartShape) {
    TxStart tx;
    tx.time = 1500;
    tx.tx_id = 42;
    tx.channel = 17;
    tx.sender = "attacker";
    const Bytes bytes{0xD4, 0x9C, 0x9A, 0xAF};
    tx.bytes = bytes;
    tx.duration = 176'000;

    const std::string line = to_jsonl(Event(tx));
    EXPECT_EQ(line.find("{\"e\":\"tx\",\"t_ns\":1500,"), 0u);
    EXPECT_NE(line.find("\"tx_id\":42"), std::string::npos);
    EXPECT_NE(line.find("\"ch\":17"), std::string::npos);
    EXPECT_NE(line.find("\"sender\":\"attacker\""), std::string::npos);
    EXPECT_NE(line.find("\"hex\":\"d49c9aaf\""), std::string::npos);
    EXPECT_EQ(line.find("\"desc\""), std::string::npos);  // no describer attached
    EXPECT_EQ(line.back(), '}');

    const std::string described = to_jsonl(Event(tx), [](std::string& out, BytesView b) {
        out += "frame:" + std::to_string(b.size());
    });
    EXPECT_NE(described.find("\"desc\":\"frame:4\""), std::string::npos);
}

TEST(ToJsonlTest, EscapesStrings) {
    TrialPhase phase;
    phase.seed = 9;
    phase.phase = "quote\"back\\slash";
    phase.detail = "line\nbreak";
    const std::string line = to_jsonl(Event(phase));
    EXPECT_NE(line.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(line.find("line\\nbreak"), std::string::npos);
}

// Regression: device names and frame descriptions are attacker-influenced.
// Control characters, DEL and non-ASCII bytes must come out as \u00xx so the
// line stays valid JSON (and valid UTF-8) for ANY input bytes.
TEST(ToJsonlTest, EscapesHostileNames) {
    ConnEvent conn;
    conn.kind = ConnEvent::Kind::kClosed;
    const std::string hostile = std::string("evil\x01\x7f") + "\xff\x80 bulb\r\b\f";
    conn.device = hostile;
    conn.reason = "ok";
    const std::string line = to_jsonl(Event(conn));

    EXPECT_NE(line.find("evil\\u0001\\u007f\\u00ff\\u0080 bulb\\r\\b\\f"), std::string::npos);
    // No raw control or non-ASCII byte survives anywhere in the line.
    for (const char c : line) {
        const auto u = static_cast<unsigned char>(c);
        EXPECT_TRUE(u >= 0x20 && u < 0x7f) << "raw byte 0x" << std::hex << int(u);
    }

    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("\x1f\x7f\xc3"), "\\u001f\\u007f\\u00c3");
    EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(ToJsonlTest, ConnEventVariants) {
    ConnEvent conn;
    conn.kind = ConnEvent::Kind::kEventClosed;
    conn.device = "bulb";
    conn.role = 1;
    conn.event_counter = 99;
    conn.anchor_observed = true;
    conn.pdus_rx = 2;
    std::string line = to_jsonl(Event(conn));
    EXPECT_NE(line.find("\"kind\":\"event\""), std::string::npos);
    EXPECT_NE(line.find("\"role\":\"slave\""), std::string::npos);
    EXPECT_NE(line.find("\"anchor\":true"), std::string::npos);

    conn.kind = ConnEvent::Kind::kClosed;
    conn.reason = "supervision timeout";
    line = to_jsonl(Event(conn));
    EXPECT_NE(line.find("\"kind\":\"closed\""), std::string::npos);
    EXPECT_NE(line.find("\"reason\":\"supervision timeout\""), std::string::npos);
    EXPECT_EQ(line.find("\"anchor\""), std::string::npos);  // diagnostics only on kEventClosed
}

TEST(ToJsonlTest, AttemptHidesGroundTruthWhenUnknown) {
    InjectionAttempt attempt;
    attempt.heuristic_success = true;
    attempt.ground_truth_known = false;
    std::string line = to_jsonl(Event(attempt));
    EXPECT_NE(line.find("\"heuristic_success\":true"), std::string::npos);
    EXPECT_EQ(line.find("\"accepted\""), std::string::npos);

    attempt.ground_truth_known = true;
    attempt.accepted_by_slave = true;
    line = to_jsonl(Event(attempt));
    EXPECT_NE(line.find("\"accepted\":true"), std::string::npos);
}

TEST(JsonlTraceSinkTest, BuffersAndWritesFile) {
    EventBus bus;
    JsonlTraceSink sink;
    bus.attach(sink);

    TrialPhase phase;
    phase.seed = 1234;
    phase.phase = "establish";
    bus.emit(phase);
    bus.emit(TxStart{});
    EXPECT_EQ(sink.str(), to_jsonl(Event(phase)) + "\n" + to_jsonl(Event(TxStart{})) + "\n");
    EXPECT_EQ(sink.str().find("{\"e\":\"phase\""), 0u);
    EXPECT_EQ(sink.events(), sink.str());  // no header

    const std::string path = ::testing::TempDir() + "obs_sink_test.jsonl";
    ASSERT_TRUE(write_text_file(path, sink.str()));
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents(4096, '\0');
    contents.resize(std::fread(contents.data(), 1, contents.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(contents, sink.str());

    sink.clear();
    EXPECT_TRUE(sink.str().empty());
    EXPECT_FALSE(write_text_file("/nonexistent-dir/x/y.jsonl", sink.str()));
}

TEST(JsonlTraceSinkTest, HeaderLinePrecedesEvents) {
    JsonlTraceSink sink;
    sink.set_header("{\"e\":\"meta\",\"v\":1}");
    EventBus bus;
    bus.attach(sink);
    bus.emit(TxStart{});

    const std::string event_line = to_jsonl(Event(TxStart{})) + "\n";
    EXPECT_EQ(sink.str(), "{\"e\":\"meta\",\"v\":1}\n" + event_line);
    EXPECT_EQ(sink.events(), event_line);  // header is not an event line

    // A header set after the first event still goes first, replacing the old one.
    sink.set_header("{\"e\":\"meta\",\"v\":22}");
    EXPECT_EQ(sink.str(), "{\"e\":\"meta\",\"v\":22}\n" + event_line);
    sink.set_header("");
    EXPECT_EQ(sink.str(), event_line);

    sink.clear();
    EXPECT_TRUE(sink.str().empty());
}

TEST(JsonlTraceSinkTest, FileRoundTrip) {
    JsonlTraceSink sink;
    sink.set_header("{\"e\":\"meta\",\"v\":1}");
    EventBus bus;
    bus.attach(sink);
    TxStart tx;
    tx.tx_id = 7;
    bus.emit(tx);
    bus.emit(IdsAlert{});

    const std::string path = ::testing::TempDir() + "obs_sink_test_rt.jsonl";
    ASSERT_TRUE(write_text_file(path, sink.str()));

    // The header line comes back first, then the events in emission order.
    std::string error;
    const std::vector<std::string> lines = read_jsonl_file(path, &error);
    std::remove(path.c_str());
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "{\"e\":\"meta\",\"v\":1}");
    EXPECT_EQ(lines[1], to_jsonl(Event(tx)));
    EXPECT_EQ(lines[2], to_jsonl(Event(IdsAlert{})));

    std::string missing_error;
    EXPECT_TRUE(read_jsonl_file("/nonexistent-dir/x.jsonl", &missing_error).empty());
    EXPECT_FALSE(missing_error.empty());
}

TEST(RxVerdictNameTest, AllNamed) {
    EXPECT_STREQ(rx_verdict_name(RxVerdict::kDelivered), "delivered");
    EXPECT_STREQ(rx_verdict_name(RxVerdict::kDeliveredCorrupted), "corrupted");
    EXPECT_STREQ(rx_verdict_name(RxVerdict::kLostSync), "lost-sync");
}

}  // namespace
}  // namespace ble::obs
