// MetricsRegistry: log2 bucketing, commutative merges, deterministic JSON,
// and the MetricsSink's event-to-metric mapping.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace ble::obs {
namespace {

TEST(HistogramTest, Log2BucketBoundaries) {
    EXPECT_EQ(histogram_bucket_of(0), 0);
    EXPECT_EQ(histogram_bucket_of(1), 1);
    EXPECT_EQ(histogram_bucket_of(2), 2);
    EXPECT_EQ(histogram_bucket_of(3), 2);
    EXPECT_EQ(histogram_bucket_of(4), 3);
    EXPECT_EQ(histogram_bucket_of(7), 3);
    EXPECT_EQ(histogram_bucket_of(8), 4);
    EXPECT_EQ(histogram_bucket_of(~std::uint64_t{0}), 64);

    EXPECT_EQ(histogram_bucket_floor(0), 0u);
    EXPECT_EQ(histogram_bucket_floor(1), 1u);
    EXPECT_EQ(histogram_bucket_floor(4), 8u);
    // Every value lands in the bucket whose floor is <= it.
    for (const std::uint64_t v : {0ull, 1ull, 5ull, 1000ull, 123456789ull}) {
        const int b = histogram_bucket_of(v);
        EXPECT_LE(histogram_bucket_floor(b), v);
        if (b < 64) {
            EXPECT_GT(histogram_bucket_floor(b + 1), v);
        }
    }
}

TEST(HistogramTest, RecordTracksCountSumMinMax) {
    HistogramSnapshot h;
    for (const std::uint64_t v : {5ull, 0ull, 9ull, 5ull}) h.record(v);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 19u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 19.0 / 4.0);
    EXPECT_EQ(h.buckets[0], 1u);  // value 0
    EXPECT_EQ(h.buckets[3], 2u);  // values 5, 5
    EXPECT_EQ(h.buckets[4], 1u);  // value 9
}

TEST(HistogramTest, MergeEqualsRecordingEverythingInOne) {
    HistogramSnapshot a, b, all;
    for (const std::uint64_t v : {1ull, 100ull, 7ull}) {
        a.record(v);
        all.record(v);
    }
    for (const std::uint64_t v : {0ull, 65535ull}) {
        b.record(v);
        all.record(v);
    }
    HistogramSnapshot ab = a;
    ab.merge(b);
    EXPECT_EQ(ab, all);
    // Commutative.
    HistogramSnapshot ba = b;
    ba.merge(a);
    EXPECT_EQ(ba, all);
    // Merging an empty histogram is the identity.
    HistogramSnapshot a_id = a;
    a_id.merge(HistogramSnapshot{});
    EXPECT_EQ(a_id, a);
}

TEST(GaugeTest, MergeKeepsRightHandLastAndGlobalExtremes) {
    GaugeSnapshot a, b;
    a.record(-5);
    a.record(10);
    b.record(3);
    GaugeSnapshot ab = a;
    ab.merge(b);
    EXPECT_EQ(ab.last, 3);
    EXPECT_EQ(ab.min, -5);
    EXPECT_EQ(ab.max, 10);
    EXPECT_EQ(ab.samples, 3u);
    // Empty right-hand side leaves the gauge untouched.
    GaugeSnapshot a_id = a;
    a_id.merge(GaugeSnapshot{});
    EXPECT_EQ(a_id, a);
}

TEST(MetricsRegistryTest, SnapshotAndJsonAreDeterministic) {
    MetricsRegistry reg;
    reg.counter("zeta").add(3);
    reg.counter("alpha").add();
    reg.gauge("g").record(-7);
    reg.histogram("h").record(6);
    reg.histogram("h").record(0);

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("zeta"), 3u);
    EXPECT_EQ(snap.counters.at("alpha"), 1u);
    // Keys come out name-sorted, so two equal snapshots give equal JSON.
    const std::string json = snap.to_json();
    EXPECT_EQ(json,
              "{\"counters\":{\"alpha\":1,\"zeta\":3},"
              "\"gauges\":{\"g\":{\"n\":1,\"last\":-7,\"min\":-7,\"max\":-7}},"
              "\"histograms\":{\"h\":{\"n\":2,\"sum\":6,\"min\":0,\"max\":6,"
              "\"buckets\":[[0,1],[3,1]]}}}");
    EXPECT_EQ(json, reg.snapshot().to_json());

    reg.reset();
    EXPECT_EQ(reg.snapshot().counters.at("zeta"), 0u);
}

TEST(MetricsSnapshotJsonTest, SeededSnapshotsRoundTripThroughFromJson) {
    // Random names (any byte, so the escaper is exercised), negative and
    // extreme gauges, u64-max sums, bucket 0 and bucket 64, empty sections.
    Rng rng(7400);
    const auto name = [&rng] {
        std::string out;
        for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
            out.push_back(static_cast<char>(rng.next_below(256)));
        }
        return out;
    };
    const auto u64 = [&rng] {
        switch (rng.next_below(4)) {
            case 0: return std::uint64_t{0};
            case 1: return std::numeric_limits<std::uint64_t>::max();
            default: return rng.next_u64() >> rng.next_below(64);
        }
    };
    const auto i64 = [&rng, &u64] {
        switch (rng.next_below(4)) {
            case 0: return std::numeric_limits<std::int64_t>::min();
            case 1: return -static_cast<std::int64_t>(rng.next_below(1000));
            default: return static_cast<std::int64_t>(u64());
        }
    };
    for (int i = 0; i < 2000; ++i) {
        MetricsSnapshot s;
        for (std::uint64_t n = rng.next_below(4); n > 0; --n) s.counters[name()] = u64();
        for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
            s.gauges[name()] = {u64(), i64(), i64(), i64()};
        }
        for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
            HistogramSnapshot& h = s.histograms[name()];
            h.count = u64();
            h.sum = u64();
            h.min = u64();
            h.max = u64();
            for (std::uint64_t b = rng.next_below(5); b > 0; --b) {
                const std::uint64_t bucket = rng.next_below(3) == 0
                                                 ? rng.next_below(2) * (kHistogramBuckets - 1)
                                                 : rng.next_below(kHistogramBuckets);
                h.buckets[bucket] = u64();
            }
        }
        const json::ParseResult parsed = json::parse(s.to_json());
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const std::optional<MetricsSnapshot> back = MetricsSnapshot::from_json(parsed.value);
        ASSERT_TRUE(back.has_value()) << s.to_json();
        EXPECT_EQ(*back, s) << s.to_json();
    }
}

TEST(MetricsSnapshotJsonTest, AbsentSectionsAreEmptyAndBucketIndicesAreChecked) {
    EXPECT_EQ(MetricsSnapshot::from_json(json::parse("{}").value), MetricsSnapshot{});
    const auto counters_only =
        MetricsSnapshot::from_json(json::parse(R"({"counters":{"c":7}})").value);
    ASSERT_TRUE(counters_only.has_value());
    EXPECT_EQ(counters_only->counters.at("c"), 7u);
    EXPECT_TRUE(counters_only->gauges.empty());
    EXPECT_TRUE(counters_only->histograms.empty());

    for (const char* index : {"65", "-1", "\"3\""}) {
        std::string error;
        const std::string doc =
            std::string(R"({"histograms":{"h":{"n":1,"buckets":[[)") + index + ",1]]}}}";
        EXPECT_FALSE(MetricsSnapshot::from_json(json::parse(doc).value, &error).has_value());
        EXPECT_NE(error.find("histogram 'h' has bucket index"), std::string::npos) << error;
        EXPECT_NE(error.find("outside 0..64"), std::string::npos) << error;
    }
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossInsertions) {
    MetricsRegistry reg;
    MetricsRegistry::Counter& c = reg.counter("first");
    for (int i = 0; i < 100; ++i) (void)reg.counter("other-" + std::to_string(i));
    c.add(7);
    EXPECT_EQ(reg.snapshot().counters.at("first"), 7u);
}

TEST(MetricsSinkTest, MapsEventsToTheTaxonomy) {
    MetricsRegistry reg;
    MetricsSink sink(reg);

    TxStart tx;
    tx.time = 1000;
    tx.duration = 176000;
    tx.sender = "phone";
    sink.on_event(Event(tx));

    RxDecision rx;
    rx.time = 2000;
    rx.verdict = RxVerdict::kDelivered;
    rx.rssi_dbm = -60.0;  // margin over -94 dBm floor: 34 dB
    sink.on_event(Event(rx));
    rx.verdict = RxVerdict::kLostSync;
    sink.on_event(Event(rx));

    WindowWiden widen;
    widen.time = 3000;
    widen.widening = 40000;
    widen.window = 100000;
    sink.on_event(Event(widen));
    widen.missed = true;
    sink.on_event(Event(widen));

    InjectionAttempt attempt;
    attempt.time = 10000;
    attempt.attempt = 1;
    attempt.heuristic_success = false;
    sink.on_event(Event(attempt));
    attempt.time = 30000;
    attempt.attempt = 2;
    attempt.heuristic_success = true;
    attempt.ground_truth_known = true;
    attempt.accepted_by_slave = true;
    sink.on_event(Event(attempt));

    sink.finalize();
    const MetricsSnapshot s = reg.snapshot();

    EXPECT_EQ(s.counters.at("events_total"), 7u);
    EXPECT_EQ(s.counters.at("tx_frames"), 1u);
    EXPECT_EQ(s.counters.at("rx_delivered"), 1u);
    EXPECT_EQ(s.counters.at("rx_lost_sync"), 1u);
    EXPECT_EQ(s.counters.at("windows_opened"), 1u);
    EXPECT_EQ(s.counters.at("window_misses"), 1u);
    EXPECT_EQ(s.counters.at("injection_attempts"), 2u);
    EXPECT_EQ(s.counters.at("injection_wins"), 1u);
    EXPECT_EQ(s.counters.at("injection_accepted"), 1u);

    // Capture margin: only the delivered frame counts, 34 dB over the floor.
    const HistogramSnapshot& margin = s.histograms.at("capture_margin_db");
    EXPECT_EQ(margin.count, 1u);
    EXPECT_EQ(margin.min, 34u);

    // Window width: 2 * widening + window, recorded for hits and misses.
    const HistogramSnapshot& width = s.histograms.at("window_width_ns");
    EXPECT_EQ(width.count, 2u);
    EXPECT_EQ(width.min, 180000u);

    // One gap between the two attempts.
    const HistogramSnapshot& gap = s.histograms.at("inter_attempt_gap_ns");
    EXPECT_EQ(gap.count, 1u);
    EXPECT_EQ(gap.sum, 20000u);

    // finalize(): per-trial aggregates.
    EXPECT_EQ(s.histograms.at("attempts_per_connection").sum, 2u);
    EXPECT_EQ(s.gauges.at("trial_span_ns").last, 30000 - 1000);
    EXPECT_EQ(s.gauges.at("last_attempt").last, 2);
}

TEST(MetricsSinkTest, CountsEveryEventKind) {
    // One bus, fifteen events: every alternative, every verdict and
    // connection-event kind, with and without an anchor.
    EventBus bus;
    MetricsRegistry reg;
    MetricsSink sink(reg);
    bus.attach(sink);

    TxStart tx;
    bus.emit(tx);
    bus.emit(tx);

    RxDecision rx;
    rx.verdict = RxVerdict::kDelivered;
    bus.emit(rx);
    rx.verdict = RxVerdict::kDeliveredCorrupted;
    bus.emit(rx);
    rx.verdict = RxVerdict::kLostSync;
    bus.emit(rx);

    ConnEvent conn;
    conn.kind = ConnEvent::Kind::kOpened;
    bus.emit(conn);
    conn.kind = ConnEvent::Kind::kEventClosed;
    conn.anchor_observed = false;
    bus.emit(conn);
    conn.anchor_observed = true;
    bus.emit(conn);
    conn.kind = ConnEvent::Kind::kClosed;
    bus.emit(conn);

    WindowWiden widen;
    widen.missed = false;
    bus.emit(widen);
    widen.missed = true;
    bus.emit(widen);

    InjectionAttempt attempt;
    attempt.heuristic_success = true;
    attempt.ground_truth_known = true;
    attempt.accepted_by_slave = true;
    bus.emit(attempt);
    attempt.heuristic_success = false;
    attempt.accepted_by_slave = false;
    bus.emit(attempt);

    bus.emit(IdsAlert{});
    bus.emit(TrialPhase{});

    const auto c = reg.snapshot().counters;
    EXPECT_EQ(c.size(), 15u);  // the whole counter vocabulary, no more
    EXPECT_EQ(c.at("events_total"), 15u);
    EXPECT_EQ(c.at("tx_frames"), 2u);
    EXPECT_EQ(c.at("rx_delivered"), 2u);  // intact + corrupted both delivered
    EXPECT_EQ(c.at("rx_corrupted"), 1u);
    EXPECT_EQ(c.at("rx_lost_sync"), 1u);
    EXPECT_EQ(c.at("conn_opened"), 1u);
    EXPECT_EQ(c.at("conn_events"), 2u);
    EXPECT_EQ(c.at("anchors_missed"), 1u);
    EXPECT_EQ(c.at("conn_closed"), 1u);
    EXPECT_EQ(c.at("windows_opened"), 1u);
    EXPECT_EQ(c.at("window_misses"), 1u);
    EXPECT_EQ(c.at("injection_attempts"), 2u);
    EXPECT_EQ(c.at("injection_wins"), 1u);
    EXPECT_EQ(c.at("injection_accepted"), 1u);
    EXPECT_EQ(c.at("ids_alerts"), 1u);
}

TEST(MetricsSinkTest, FinalizeIsIdempotent) {
    MetricsRegistry reg;
    MetricsSink sink(reg);
    sink.finalize();
    sink.finalize();
    EXPECT_EQ(reg.snapshot().histograms.at("attempts_per_connection").count, 1u);
}

}  // namespace
}  // namespace ble::obs
