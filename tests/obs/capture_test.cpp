// Unit tests for the link-layer capture subsystem (DESIGN.md §14): channel
// mapping, dBm quantization, pseudo-header layout, PCAP round-trips,
// the vantage state machine, and the offline JSONL renderer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/capture/capture.hpp"
#include "obs/sinks.hpp"

namespace ble::obs::capture {
namespace {

Bytes sample_frame(std::uint8_t tag) {
    // AA + a few PDU bytes + 3-byte CRC; enough for a valid reference AA.
    return Bytes{0xD6, 0xBE, 0x89, 0x8E, 0x02, 0x03, tag, 0xAA, 0xBB, 0xCC};
}

std::vector<CaptureRecord> sample_records() {
    std::vector<CaptureRecord> records;

    CaptureRecord omni;  // omniscient-style: sender power only, CRC unjudged
    omni.time = 0;
    omni.channel = 37;
    omni.signal_dbm = 0;
    omni.signal_valid = true;
    omni.bytes = sample_frame(0x01);
    records.push_back(omni);

    CaptureRecord sniffed;  // device-style: full receiver view, CRC ok
    sniffed.time = 1'234'567'890'123;
    sniffed.channel = 17;
    sniffed.signal_dbm = -63;
    sniffed.noise_dbm = -100;
    sniffed.aa_offenses = 2;
    sniffed.signal_valid = true;
    sniffed.noise_valid = true;
    sniffed.offenses_valid = true;
    sniffed.crc_checked = true;
    sniffed.crc_valid = true;
    sniffed.bytes = sample_frame(0x02);
    records.push_back(sniffed);

    CaptureRecord corrupted = sniffed;  // CRC judged and failed
    corrupted.time = 1'234'567'891'000;
    corrupted.channel = 36;
    corrupted.crc_valid = false;
    corrupted.bytes = sample_frame(0x03);
    records.push_back(corrupted);

    return records;
}

TEST(CaptureChannelMapTest, LogicalToRfRoundTrips) {
    // Spec Vol 6 Part B §1.4.1 pins: advertising channels straddle the band.
    EXPECT_EQ(rf_channel_from_logical(37), 0);
    EXPECT_EQ(rf_channel_from_logical(38), 12);
    EXPECT_EQ(rf_channel_from_logical(39), 39);
    EXPECT_EQ(rf_channel_from_logical(0), 1);
    EXPECT_EQ(rf_channel_from_logical(10), 11);
    EXPECT_EQ(rf_channel_from_logical(11), 13);
    EXPECT_EQ(rf_channel_from_logical(36), 38);

    bool seen[40] = {};
    for (std::uint8_t logical = 0; logical < 40; ++logical) {
        const std::uint8_t rf = rf_channel_from_logical(logical);
        ASSERT_LT(rf, 40);
        EXPECT_FALSE(seen[rf]) << "rf " << int(rf) << " mapped twice";
        seen[rf] = true;
        EXPECT_EQ(logical_channel_from_rf(rf), logical);
    }
    // Out-of-BLE-range values pass through both directions.
    EXPECT_EQ(rf_channel_from_logical(200), 200);
    EXPECT_EQ(logical_channel_from_rf(200), 200);
}

TEST(CaptureQuantizeTest, MatchesTheJsonlTextRoundTrip) {
    // quantize_dbm must agree with "what the JSONL trace stores at %.1f,
    // parsed back and rounded" — the offline exporter's bit-identity hinges
    // on it.  Every one-decimal tie k/20 on [-200, 200] dBm and one ulp
    // either side, the values that round to the int8 ends, then seeded bit
    // patterns: huge, tiny, NaN payloads and infinities included.
    std::vector<double> values = {-93.25, -93.35, -0.05, 0.05, 0.0, -0.0, -63.4999,
                                  -128.5, -128.49999999999997, 127.5, 127.49999999999999,
                                  1e300, -1e300, INFINITY, -INFINITY, NAN, -NAN};
    for (int k = -4000; k <= 4000; ++k) {
        const double v = k / 20.0;
        values.push_back(v);
        values.push_back(std::nextafter(v, -INFINITY));
        values.push_back(std::nextafter(v, INFINITY));
    }
    Rng rng(0x9da7'0dbe);
    for (int i = 0; i < 250'000; ++i) {
        const std::uint64_t bits = rng.next_u64();
        // Half any bit pattern, half on [-200, 200] dBm.
        values.push_back(bits % 2 == 0 ? std::bit_cast<double>(rng.next_u64())
                                       : rng.uniform(-200.0, 200.0));
    }
    int mismatches = 0;
    for (const double v : values) {
        char buf[400];
        std::snprintf(buf, sizeof(buf), "%.1f", v);
        long expected = std::lround(std::strtod(buf, nullptr));
        if (expected < -128) expected = -128;
        if (expected > 127) expected = 127;
        if (quantize_dbm(v) != static_cast<std::int8_t>(expected) && ++mismatches <= 10) {
            ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << " ("
                          << buf << "): " << int{quantize_dbm(v)} << " != " << std::dec
                          << expected;
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(quantize_dbm(-1000.0), -128);  // clamped to int8
    EXPECT_EQ(quantize_dbm(1000.0), 127);
}

TEST(CapturePhdrTest, LaysOutAllTenBytes) {
    CaptureRecord record;
    record.channel = 37;  // rf 0
    record.signal_dbm = -60;
    record.noise_dbm = -100;
    record.aa_offenses = 3;
    record.signal_valid = true;
    record.noise_valid = true;
    record.offenses_valid = true;
    record.crc_checked = true;
    record.crc_valid = true;
    record.bytes = Bytes{0xD6, 0xBE, 0x89, 0x8E, 0x00};

    std::string out;
    append_phdr(out, record, record.bytes);
    ASSERT_EQ(out.size(), 10u);
    const auto* b = reinterpret_cast<const std::uint8_t*>(out.data());
    EXPECT_EQ(b[0], 0);  // rf channel
    EXPECT_EQ(static_cast<std::int8_t>(b[1]), -60);
    EXPECT_EQ(static_cast<std::int8_t>(b[2]), -100);
    EXPECT_EQ(b[3], 3);
    // Reference AA: the frame's own AA, little-endian.
    EXPECT_EQ(b[4], 0xD6);
    EXPECT_EQ(b[5], 0xBE);
    EXPECT_EQ(b[6], 0x89);
    EXPECT_EQ(b[7], 0x8E);
    // Flags: dewhitened | signal | noise | ref-AA | offenses | crc-checked |
    // crc-valid.
    const std::uint16_t flags = static_cast<std::uint16_t>(b[8] | (b[9] << 8));
    EXPECT_EQ(flags, 0x0001 | 0x0002 | 0x0004 | 0x0010 | 0x0020 | 0x0400 | 0x0800);

    // A frame too short for an AA drops the ref-AA-valid flag and zeroes the
    // field instead of reading past the end.
    CaptureRecord tiny;
    tiny.bytes = Bytes{0x01, 0x02};
    std::string tiny_out;
    append_phdr(tiny_out, tiny, tiny.bytes);
    ASSERT_EQ(tiny_out.size(), 10u);
    const auto* t = reinterpret_cast<const std::uint8_t*>(tiny_out.data());
    EXPECT_EQ(t[4] | t[5] | t[6] | t[7], 0);
    EXPECT_EQ(t[8] & 0x10, 0);
}

TEST(CaptureVantageKindTest, Names) {
    EXPECT_STREQ(vantage_kind_name(VantageKind::kOmniscient), "omniscient");
    EXPECT_STREQ(vantage_kind_name(VantageKind::kDevice), "device");
}

TEST(CaptureRoundTripTest, PcapParsesBackAndReserializesIdentically) {
    const std::vector<CaptureRecord> records = sample_records();
    const std::string bytes = pcap_bytes(records);

    const ParsedCapture parsed = parse_capture(bytes);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(parsed.records[i], records[i]) << "record " << i;
    }
    EXPECT_EQ(pcap_bytes(parsed.records), bytes);
}

TEST(CaptureRoundTripTest, RejectsCorruptInputs) {
    EXPECT_FALSE(parse_capture("").ok);
    EXPECT_FALSE(parse_capture("not a capture at all").ok);

    std::string pcap = pcap_bytes(sample_records());
    // Truncating mid-record is detected, not silently accepted.
    EXPECT_FALSE(parse_capture(std::string_view(pcap).substr(0, pcap.size() - 3)).ok);
    // Corrupting the magic falls out of the ns-pcap fast path.
    std::string bad_magic = pcap;
    bad_magic[0] = 'x';
    EXPECT_FALSE(parse_capture(bad_magic).ok);
}

TEST(CaptureBuilderTest, OmniscientRecordsEveryTxAndIgnoresVerdicts) {
    CaptureBuilder builder(VantagePoint{});
    const Bytes a = sample_frame(0x10);
    const Bytes b = sample_frame(0x11);
    builder.on_tx(1000, 1, 37, 0.0, a);
    builder.on_tx(2000, 2, 17, -4.0, b);
    // Verdicts are receiver business; the god view already has both frames.
    builder.on_rx(1, "bulb", RxVerdict::kDelivered, -60.0, -100.0, 0);
    builder.on_rx(2, "bulb", RxVerdict::kLostSync, -93.0, -100.0, 3);

    ASSERT_EQ(builder.records().size(), 2u);
    EXPECT_EQ(builder.records()[0].time, 1000);
    EXPECT_EQ(builder.records()[0].channel, 37);
    EXPECT_EQ(builder.records()[0].signal_dbm, 0);
    EXPECT_TRUE(builder.records()[0].signal_valid);
    EXPECT_FALSE(builder.records()[0].noise_valid);
    EXPECT_FALSE(builder.records()[0].crc_checked);  // nobody judged the CRC
    EXPECT_EQ(builder.records()[0].bytes, a);
    EXPECT_EQ(builder.records()[1].signal_dbm, -4);
    EXPECT_EQ(builder.records()[1].bytes, b);
}

TEST(CaptureBuilderTest, DeviceVantageFollowsTheReceiversVerdicts) {
    CaptureBuilder builder(VantagePoint{VantageKind::kDevice, "bulb"});
    const Bytes delivered = sample_frame(0x20);
    const Bytes corrupted = sample_frame(0x21);
    const Bytes lost = sample_frame(0x22);
    builder.on_tx(1000, 1, 5, 0.0, delivered);
    builder.on_tx(2000, 2, 6, 0.0, corrupted);
    builder.on_tx(3000, 3, 7, 0.0, lost);

    // Another receiver's verdicts are not this sniffer's view.
    builder.on_rx(1, "phone", RxVerdict::kDelivered, -50.0, -100.0, 0);
    EXPECT_TRUE(builder.records().empty());

    builder.on_rx(1, "bulb", RxVerdict::kDelivered, -60.4, -99.6, 1);
    builder.on_rx(2, "bulb", RxVerdict::kDeliveredCorrupted, -88.0, -100.0, 2);
    builder.on_rx(3, "bulb", RxVerdict::kLostSync, -95.0, -100.0, 5);
    // A verdict for a frame that was never parked is ignored.
    builder.on_rx(99, "bulb", RxVerdict::kDelivered, -60.0, -100.0, 0);

    const std::vector<CaptureRecord> records = builder.records();
    ASSERT_EQ(records.size(), 2u);  // kLostSync logs nothing
    const CaptureRecord& ok = records[0];
    EXPECT_EQ(ok.time, 1000);  // the frame's on-air start, not the verdict time
    EXPECT_EQ(ok.channel, 5);
    EXPECT_EQ(ok.signal_dbm, quantize_dbm(-60.4));
    EXPECT_EQ(ok.noise_dbm, quantize_dbm(-99.6));
    EXPECT_EQ(ok.aa_offenses, 1);
    EXPECT_TRUE(ok.signal_valid && ok.noise_valid && ok.offenses_valid);
    EXPECT_TRUE(ok.crc_checked);
    EXPECT_TRUE(ok.crc_valid);
    EXPECT_EQ(ok.bytes, delivered);

    const CaptureRecord& bad = records[1];
    EXPECT_TRUE(bad.crc_checked);
    EXPECT_FALSE(bad.crc_valid);
    // The bytes are the sender's originals; corruption lives in the CRC flag.
    EXPECT_EQ(bad.bytes, corrupted);
}

TEST(CaptureBuilderTest, DeviceVantagePrunesStaleParkedFrames) {
    CaptureBuilder builder(VantagePoint{VantageKind::kDevice, "bulb"});
    builder.on_tx(0, 1, 5, 0.0, sample_frame(0x30));
    // The next tx arrives past the 100 ms horizon: tx 1 is pruned.
    builder.on_tx(100'000'001, 2, 6, 0.0, sample_frame(0x31));
    builder.on_rx(1, "bulb", RxVerdict::kDelivered, -60.0, -100.0, 0);
    EXPECT_TRUE(builder.records().empty());
    builder.on_rx(2, "bulb", RxVerdict::kDelivered, -60.0, -100.0, 0);
    ASSERT_EQ(builder.records().size(), 1u);
    EXPECT_EQ(builder.records()[0].time, 100'000'001);
}

TEST(CaptureSinkTest, FeedsTheBuilderFromBusEvents) {
    EventBus bus;
    CaptureSink sink;  // omniscient by default
    bus.attach(sink);

    const Bytes frame = sample_frame(0x40);
    TxStart tx;
    tx.time = 5000;
    tx.tx_id = 1;
    tx.channel = 21;
    tx.tx_power_dbm = -8.0;
    tx.bytes = frame;
    bus.emit(tx);

    RxDecision rx;
    rx.tx_id = 1;
    rx.receiver = "bulb";
    rx.verdict = RxVerdict::kDelivered;
    bus.emit(rx);

    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].channel, 21);
    EXPECT_EQ(sink.records()[0].signal_dbm, -8);
    EXPECT_EQ(sink.records()[0].bytes, frame);

    const ParsedCapture parsed = parse_capture(sink.pcap());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0], sink.records()[0]);
}

TEST(CaptureOfflineTest, TraceLinesRenderExactlyLikeTheLiveBuilder) {
    // Hand-written lines in the JsonlTraceSink format ("%.1f" dBm fields).
    const std::vector<std::string> lines = {
        R"({"e":"meta","name":"x"})",  // header: no tx/rx, skipped
        R"({"e":"tx","t_ns":1000,"tx_id":1,"ch":37,"sender":"bulb","dur_ns":80000,)"
        R"("tx_dbm":0.0,"hex":"d6be898e020310aabbcc"})",
        R"({"e":"rx","t_ns":1080,"tx_id":1,"ch":37,"receiver":"phone",)"
        R"("verdict":"delivered","rssi_dbm":-60.4,"noise_dbm":-99.6,)"
        R"("corrupted_bytes":0,"sync_bit_errors":1})",
        R"({"e":"widen","t_ns":2000,"device":"bulb"})",  // irrelevant kind
    };

    std::string error;
    const std::vector<CaptureRecord> omni =
        parse_capture(pcap_from_trace_lines(lines, VantagePoint{}, &error)).records;
    ASSERT_EQ(omni.size(), 1u) << error;
    EXPECT_EQ(omni[0].time, 1000);
    EXPECT_EQ(omni[0].signal_dbm, 0);
    EXPECT_EQ(omni[0].bytes, sample_frame(0x10));

    const std::string device_pcap =
        pcap_from_trace_lines(lines, VantagePoint{VantageKind::kDevice, "phone"}, &error);
    const std::vector<CaptureRecord> device = parse_capture(device_pcap).records;
    ASSERT_EQ(device.size(), 1u) << error;
    // The offline record matches a live builder fed the same values.
    CaptureBuilder live(VantagePoint{VantageKind::kDevice, "phone"});
    live.on_tx(1000, 1, 37, 0.0, sample_frame(0x10));
    live.on_rx(1, "phone", RxVerdict::kDelivered, -60.4, -99.6, 1);
    ASSERT_EQ(live.records().size(), 1u);
    EXPECT_EQ(device[0], live.records()[0]);
    EXPECT_EQ(device_pcap, live.pcap());

    // A vantage nobody transmitted to stays empty without erroring.
    const ParsedCapture ghost = parse_capture(
        pcap_from_trace_lines(lines, VantagePoint{VantageKind::kDevice, "ghost"}, &error));
    EXPECT_TRUE(ghost.ok) << ghost.error;
    EXPECT_TRUE(ghost.records.empty());
}

TEST(CaptureOfflineTest, ReportsMalformedTraceLines) {
    std::string error;
    EXPECT_TRUE(pcap_from_trace_lines({"not json"}, VantagePoint{}, &error).empty());
    EXPECT_NE(error.find("line 1"), std::string::npos);

    error.clear();
    EXPECT_TRUE(pcap_from_trace_lines(
                    {R"({"e":"tx","t_ns":1,"tx_id":1,"ch":37,"tx_dbm":0.0,"hex":"zz"})"},
                    VantagePoint{}, &error)
                    .empty());
    EXPECT_NE(error.find("bad tx hex"), std::string::npos);

    error.clear();
    EXPECT_TRUE(pcap_from_trace_lines(
                    {R"({"e":"rx","t_ns":1,"tx_id":1,"receiver":"x","verdict":"nope"})"},
                    VantagePoint{}, &error)
                    .empty());
    EXPECT_NE(error.find("unknown rx verdict"), std::string::npos);
}

TEST(CaptureFileTest, PcapRoundTripsThroughTheSharedFileHelpers) {
    char tmpl[] = "/tmp/capture_file_test.XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/frame.pcap";

    const std::string pcap = pcap_bytes(sample_records());
    ASSERT_TRUE(write_text_file(path, pcap));

    // Identical bytes come back and parse into the records that were written.
    std::string back;
    std::string error;
    ASSERT_TRUE(read_binary_file(path, back, &error)) << error;
    EXPECT_EQ(back, pcap);
    const ParsedCapture parsed = parse_capture(back);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.records.size(), sample_records().size());

    std::remove(path.c_str());
    std::remove(tmpl);
}

}  // namespace
}  // namespace ble::obs::capture
