// Unit tests for the link-layer capture subsystem (DESIGN.md §14): channel
// mapping, dBm quantization, pseudo-header layout, PCAP/btsnoop round-trips,
// the vantage state machine, and the offline JSONL renderer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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
    // on it.  Sweep far more than the 4-entry memo holds, twice, so both the
    // miss path and the hit path are exercised and must agree.
    std::vector<double> values;
    for (double v = -128.55; v <= 10.0; v += 1.37) values.push_back(v);
    values.insert(values.end(), {-93.25, -93.35, -0.05, 0.05, 0.0, -63.4999});
    for (int pass = 0; pass < 2; ++pass) {
        for (const double v : values) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1f", v);
            long expected = std::lround(std::strtod(buf, nullptr));
            if (expected < -128) expected = -128;
            if (expected > 127) expected = 127;
            EXPECT_EQ(quantize_dbm(v), static_cast<std::int8_t>(expected))
                << "pass " << pass << " value " << v;
        }
    }
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
    append_phdr(out, record);
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
    append_phdr(tiny_out, tiny);
    ASSERT_EQ(tiny_out.size(), 10u);
    const auto* t = reinterpret_cast<const std::uint8_t*>(tiny_out.data());
    EXPECT_EQ(t[4] | t[5] | t[6] | t[7], 0);
    EXPECT_EQ(t[8] & 0x10, 0);
}

TEST(CaptureFormatTest, NamesAndExtensions) {
    EXPECT_STREQ(capture_format_name(CaptureFormat::kPcap), "pcap");
    EXPECT_STREQ(capture_format_name(CaptureFormat::kBtsnoop), "btsnoop");
    EXPECT_STREQ(capture_format_extension(CaptureFormat::kPcap), ".pcap");
    EXPECT_STREQ(capture_format_extension(CaptureFormat::kBtsnoop), ".btsnoop");
    EXPECT_STREQ(vantage_kind_name(VantageKind::kOmniscient), "omniscient");
    EXPECT_STREQ(vantage_kind_name(VantageKind::kDevice), "device");
}

TEST(CaptureRoundTripTest, PcapParsesBackAndReserializesIdentically) {
    const std::vector<CaptureRecord> records = sample_records();
    const std::string bytes = pcap_bytes(records);

    const ParsedCapture parsed = parse_pcap(bytes);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.format, CaptureFormat::kPcap);
    ASSERT_EQ(parsed.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(parsed.records[i], records[i]) << "record " << i;
    }
    EXPECT_EQ(capture_bytes(parsed.records, CaptureFormat::kPcap), bytes);

    // Magic-based dispatch finds the same parser.
    const ParsedCapture dispatched = parse_capture(bytes);
    ASSERT_TRUE(dispatched.ok) << dispatched.error;
    EXPECT_EQ(dispatched.format, CaptureFormat::kPcap);
}

TEST(CaptureRoundTripTest, BtsnoopTruncatesToMicrosecondsButStaysByteStable) {
    std::vector<CaptureRecord> records = sample_records();
    records[1].time = 1'234'567'890'123;  // not a whole µs: truncated on write
    const std::string bytes = btsnoop_bytes(records);

    const ParsedCapture parsed = parse_btsnoop(bytes);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.format, CaptureFormat::kBtsnoop);
    ASSERT_EQ(parsed.records.size(), records.size());
    EXPECT_EQ(parsed.records[1].time, 1'234'567'890'000);  // µs resolution
    // Everything but the sub-µs time survives...
    CaptureRecord expected = records[1];
    expected.time = 1'234'567'890'000;
    EXPECT_EQ(parsed.records[1], expected);
    // ...and re-serializing the parsed records reproduces the exact file.
    EXPECT_EQ(capture_bytes(parsed.records, CaptureFormat::kBtsnoop), bytes);

    const ParsedCapture dispatched = parse_capture(bytes);
    ASSERT_TRUE(dispatched.ok) << dispatched.error;
    EXPECT_EQ(dispatched.format, CaptureFormat::kBtsnoop);
}

TEST(CaptureRoundTripTest, RejectsCorruptInputs) {
    EXPECT_FALSE(parse_pcap("").ok);
    EXPECT_FALSE(parse_btsnoop("").ok);
    EXPECT_FALSE(parse_capture("not a capture at all").ok);

    std::string pcap = pcap_bytes(sample_records());
    // Truncating mid-record is detected, not silently accepted.
    EXPECT_FALSE(parse_pcap(std::string_view(pcap).substr(0, pcap.size() - 3)).ok);
    // Corrupting the magic falls out of the ns-pcap fast path.
    std::string bad_magic = pcap;
    bad_magic[0] = 'x';
    EXPECT_FALSE(parse_pcap(bad_magic).ok);

    std::string snoop = btsnoop_bytes(sample_records());
    EXPECT_FALSE(parse_btsnoop(std::string_view(snoop).substr(0, snoop.size() - 1)).ok);
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

    ASSERT_EQ(builder.records().size(), 2u);  // kLostSync logs nothing
    const CaptureRecord& ok = builder.records()[0];
    EXPECT_EQ(ok.time, 1000);  // the frame's on-air start, not the verdict time
    EXPECT_EQ(ok.channel, 5);
    EXPECT_EQ(ok.signal_dbm, quantize_dbm(-60.4));
    EXPECT_EQ(ok.noise_dbm, quantize_dbm(-99.6));
    EXPECT_EQ(ok.aa_offenses, 1);
    EXPECT_TRUE(ok.signal_valid && ok.noise_valid && ok.offenses_valid);
    EXPECT_TRUE(ok.crc_checked);
    EXPECT_TRUE(ok.crc_valid);
    EXPECT_EQ(ok.bytes, delivered);

    const CaptureRecord& bad = builder.records()[1];
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

    const ParsedCapture parsed = parse_capture(sink.pcap_bytes());
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
        records_from_trace_lines(lines, VantagePoint{}, &error);
    ASSERT_EQ(omni.size(), 1u) << error;
    EXPECT_EQ(omni[0].time, 1000);
    EXPECT_EQ(omni[0].signal_dbm, 0);
    EXPECT_EQ(omni[0].bytes, sample_frame(0x10));

    const std::vector<CaptureRecord> device = records_from_trace_lines(
        lines, VantagePoint{VantageKind::kDevice, "phone"}, &error);
    ASSERT_EQ(device.size(), 1u) << error;
    // The offline record matches a live builder fed the same values.
    CaptureBuilder live(VantagePoint{VantageKind::kDevice, "phone"});
    live.on_tx(1000, 1, 37, 0.0, sample_frame(0x10));
    live.on_rx(1, "phone", RxVerdict::kDelivered, -60.4, -99.6, 1);
    ASSERT_EQ(live.records().size(), 1u);
    EXPECT_EQ(device[0], live.records()[0]);

    // A vantage nobody transmitted to stays empty without erroring.
    EXPECT_TRUE(records_from_trace_lines(lines, VantagePoint{VantageKind::kDevice, "ghost"},
                                         &error)
                    .empty());
}

TEST(CaptureOfflineTest, ReportsMalformedTraceLines) {
    std::string error;
    EXPECT_TRUE(records_from_trace_lines({"not json"}, VantagePoint{}, &error).empty());
    EXPECT_NE(error.find("line 1"), std::string::npos);

    error.clear();
    EXPECT_TRUE(records_from_trace_lines(
                    {R"({"e":"tx","t_ns":1,"tx_id":1,"ch":37,"tx_dbm":0.0,"hex":"zz"})"},
                    VantagePoint{}, &error)
                    .empty());
    EXPECT_NE(error.find("bad tx hex"), std::string::npos);

    error.clear();
    EXPECT_TRUE(records_from_trace_lines(
                    {R"({"e":"rx","t_ns":1,"tx_id":1,"receiver":"x","verdict":"nope"})"},
                    VantagePoint{}, &error)
                    .empty());
    EXPECT_NE(error.find("unknown rx verdict"), std::string::npos);
}

TEST(CaptureGzipTest, PcapGzRoundTripsThroughTheSharedFileHelpers) {
    if (!trace_compression_available()) {
        GTEST_SKIP() << "built without zlib";
    }
    char tmpl[] = "/tmp/capture_gzip_test.XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/frame.pcap.gz";

    const std::string pcap = pcap_bytes(sample_records());
    ASSERT_TRUE(write_text_file(path, pcap, /*gzip=*/true));

    // The reader is gz-transparent: identical bytes come back...
    std::string back;
    std::string error;
    ASSERT_TRUE(read_binary_file(path, back, &error)) << error;
    EXPECT_EQ(back, pcap);
    const ParsedCapture parsed = parse_capture(back);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.records.size(), sample_records().size());

    // ...while the on-disk file really is gzip (magic 1f 8b), not plain pcap.
    std::FILE* raw = std::fopen(path.c_str(), "rb");
    ASSERT_NE(raw, nullptr);
    unsigned char magic[2] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, raw), 2u);
    std::fclose(raw);
    EXPECT_EQ(magic[0], 0x1f);
    EXPECT_EQ(magic[1], 0x8b);

    std::remove(path.c_str());
    std::remove(tmpl);
}

}  // namespace
}  // namespace ble::obs::capture
