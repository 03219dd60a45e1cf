#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/medium.hpp"
#include "sim/radio_device.hpp"

namespace ble::sim {
namespace {

/// Records everything it hears.
class ProbeDevice : public RadioDevice {
public:
    using RadioDevice::RadioDevice;
    void on_rx(const RxFrame& frame) override { received.push_back(frame); }
    void on_tx_complete() override { ++tx_done; }

    std::vector<RxFrame> received;
    int tx_done = 0;
};

AirFrame test_frame(std::size_t n = 16, std::uint8_t fill = 0x5A) {
    AirFrame f;
    f.bytes = Bytes(n, fill);
    return f;
}

struct MediumFixture : ::testing::Test {
    MediumFixture()
        : medium(scheduler, Rng(99), PathLossModel(no_fading()), CaptureModel{}) {}

    static PathLossParams no_fading() {
        PathLossParams p;
        p.fading_sigma_db = 0.0;
        return p;
    }

    std::unique_ptr<ProbeDevice> make(const std::string& name, Position pos) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(7), cfg);
    }

    Scheduler scheduler;
    RadioMedium medium;
};

TEST_F(MediumFixture, DeliversToListener) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    ASSERT_EQ(rx->received.size(), 1u);
    EXPECT_EQ(rx->received[0].bytes, Bytes(16, 0x5A));
    EXPECT_EQ(rx->received[0].channel, 7);
    EXPECT_FALSE(rx->received[0].corrupted_by_medium);
    // 0 dBm - 40 dB at 1 m.
    EXPECT_NEAR(rx->received[0].rssi_dbm, -40.0, 0.01);
    EXPECT_EQ(tx->tx_done, 1);
}

TEST_F(MediumFixture, FrameTimingMatchesAirtime) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(3);
    tx->transmit(3, test_frame(16));
    scheduler.run_all();
    ASSERT_EQ(rx->received.size(), 1u);
    // preamble 8 µs + 16 bytes * 8 µs = 136 µs.
    EXPECT_EQ(rx->received[0].end - rx->received[0].start, 136_us);
}

TEST_F(MediumFixture, NoDeliveryOnOtherChannel) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(8);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, NoDeliveryWhenNotListening) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ListeningMidFrameCannotSync) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    tx->transmit(7, test_frame());
    (void)scheduler.schedule_at(20'000, [&] { rx->listen(7); });  // 20 µs in
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ChannelSwitchDropsLock) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    (void)scheduler.schedule_at(20'000, [&] { rx->listen(9); });
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, HalfDuplexTransmitterMissesFrames) {
    auto a = make("a", {0, 0});
    auto b = make("b", {1, 0});
    a->listen(7);
    // a starts transmitting; b's frame starts during a's transmission.
    a->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(10'000, [&] { b->transmit(7, test_frame(4)); });
    scheduler.run_all();
    EXPECT_TRUE(a->received.empty());
}

TEST_F(MediumFixture, OutOfRangeReceiverDoesNotLock) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {100'000, 0});  // ~150 dB path loss
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ReceivingReflectsLockState) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    EXPECT_FALSE(rx->receiving());
    tx->transmit(7, test_frame());
    bool during = false;
    (void)scheduler.schedule_at(50'000, [&] { during = rx->receiving(); });
    scheduler.run_all();
    EXPECT_TRUE(during);
    EXPECT_FALSE(rx->receiving());
}

TEST_F(MediumFixture, StrongInterfererCorruptsLockedFrame) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {2, 0});
    auto jam = make("jam", {2.1, 0.1});  // right next to the receiver
    rx->listen(7);
    // Interferer 30 dB stronger at rx, overlapping the tail of the frame.
    int corrupted = 0;
    int delivered = 0;
    for (int i = 0; i < 50; ++i) {
        rx->received.clear();
        rx->listen(7);
        tx->transmit(7, test_frame(24));
        (void)scheduler.schedule_after(80'000, [&] { jam->transmit(7, test_frame(24, 0x11)); });
        scheduler.run_all();
        if (!rx->received.empty()) {
            ++delivered;
            corrupted += rx->received[0].corrupted_by_medium ? 1 : 0;
        }
    }
    // The tail is essentially always mangled (sync was clean, so frames are
    // delivered corrupted rather than dropped).
    EXPECT_GT(delivered, 40);
    EXPECT_GT(corrupted, 40);
}

TEST_F(MediumFixture, LaterFrameNotDeliveredToLockedReceiver) {
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {0.5, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx1->transmit(7, test_frame(30, 0xAA));
    (void)scheduler.schedule_at(30'000, [&] { tx2->transmit(7, test_frame(4, 0xBB)); });
    scheduler.run_all();
    // At most the first frame arrives (possibly corrupted); the second is
    // never delivered because the receiver was locked when it started.
    for (const auto& frame : rx->received) {
        EXPECT_NE(frame.bytes, Bytes(4, 0xBB));
    }
}

TEST_F(MediumFixture, EqualPowerOverlapSuppressesSyncOnHeadCollision) {
    // Two equal-power frames starting 8 µs apart: the second one's header
    // bytes overlap the first, and vice versa — at 0 dB SIR most attempts
    // corrupt the sync region of at least one frame.
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {2, 0});
    auto rx = make("rx", {1, 0});  // equidistant
    int both_delivered = 0;
    for (int i = 0; i < 30; ++i) {
        rx->received.clear();
        rx->listen(7);
        tx1->transmit(7, test_frame(20, 0xAA));
        (void)scheduler.schedule_after(8'000, [&] { tx2->transmit(7, test_frame(20, 0xBB)); });
        scheduler.run_all();
        both_delivered += rx->received.size() == 1 &&
                                  !rx->received[0].corrupted_by_medium
                              ? 1
                              : 0;
    }
    EXPECT_LT(both_delivered, 20);
}

TEST_F(MediumFixture, BusCarriesTxStartAndRxDecision) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    std::vector<obs::TxStart> tx_events;
    std::vector<obs::RxDecision> rx_events;
    obs::ScopedSubscription sub(medium.bus(), [&](const obs::Event& event) {
        if (const auto* t = std::get_if<obs::TxStart>(&event)) {
            tx_events.push_back(*t);
        } else if (const auto* r = std::get_if<obs::RxDecision>(&event)) {
            rx_events.push_back(*r);
        }
    });
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();

    ASSERT_EQ(tx_events.size(), 1u);
    EXPECT_EQ(tx_events[0].sender, "tx");
    EXPECT_EQ(tx_events[0].channel, 7);
    EXPECT_EQ(tx_events[0].duration, 136_us);  // preamble + 16 bytes at 8 µs

    ASSERT_EQ(rx_events.size(), 1u);
    EXPECT_EQ(rx_events[0].tx_id, tx_events[0].tx_id);
    EXPECT_EQ(rx_events[0].verdict, obs::RxVerdict::kDelivered);
    EXPECT_NEAR(rx_events[0].rssi_dbm, -40.0, 0.01);
    EXPECT_EQ(rx_events[0].corrupted_bytes, 0);
}

TEST_F(MediumFixture, BusVerdictMatchesDelivery) {
    // Repeated head-on collisions: every round yields exactly one RxDecision,
    // and its verdict agrees with what the receiver actually got (lost-sync
    // => nothing, corrupted => corrupted_by_medium, delivered => clean).
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {2, 0});
    auto rx = make("rx", {1, 0});  // equidistant: 0 dB SIR
    std::vector<obs::RxDecision> decisions;
    obs::ScopedSubscription sub(medium.bus(), [&](const obs::Event& event) {
        if (const auto* r = std::get_if<obs::RxDecision>(&event)) decisions.push_back(*r);
    });
    int lost = 0;
    for (int i = 0; i < 30; ++i) {
        rx->received.clear();
        decisions.clear();
        rx->listen(7);
        tx1->transmit(7, test_frame(20, 0xAA));
        (void)scheduler.schedule_after(8'000, [&] { tx2->transmit(7, test_frame(20, 0xBB)); });
        scheduler.run_all();
        ASSERT_EQ(decisions.size(), 1u);
        switch (decisions[0].verdict) {
            case obs::RxVerdict::kLostSync:
                EXPECT_TRUE(rx->received.empty());
                EXPECT_GT(decisions[0].sync_bit_errors, medium.params().max_sync_bit_errors);
                ++lost;
                break;
            case obs::RxVerdict::kDeliveredCorrupted:
                ASSERT_EQ(rx->received.size(), 1u);
                EXPECT_TRUE(rx->received[0].corrupted_by_medium);
                EXPECT_GT(decisions[0].corrupted_bytes, 0);
                break;
            case obs::RxVerdict::kDelivered:
                ASSERT_EQ(rx->received.size(), 1u);
                EXPECT_FALSE(rx->received[0].corrupted_by_medium);
                EXPECT_EQ(decisions[0].corrupted_bytes, 0);
                break;
        }
    }
    EXPECT_GT(lost, 0);  // at 0 dB SIR some heads must die
}

TEST_F(MediumFixture, DetachedSenderDoesNotDangle) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    tx.reset();  // destroyed mid-frame
    scheduler.run_all();
    // No crash; frame is treated as gone (sender unknown => no power).
    SUCCEED();
}

// --- per-channel interest lists & pooled frames (DESIGN.md §10) ---

TEST_F(MediumFixture, ListenersOnFollowsTuneAndDetach) {
    auto a = make("a", {0, 0});
    auto b = make("b", {1, 0});
    auto c = make("c", {2, 0});
    a->listen(7);
    b->listen(7);
    c->listen(9);
    ASSERT_EQ(medium.listeners_on(7).size(), 2u);
    EXPECT_EQ(medium.listeners_on(7)[0]->name(), "a");
    EXPECT_EQ(medium.listeners_on(7)[1]->name(), "b");
    ASSERT_EQ(medium.listeners_on(9).size(), 1u);

    b->listen(9);  // re-tune
    ASSERT_EQ(medium.listeners_on(7).size(), 1u);
    ASSERT_EQ(medium.listeners_on(9).size(), 2u);
    // Interest lists sort by attach order, not listen order: b attached
    // before c, so it walks first despite re-tuning later — exactly the
    // historical all-device walk filtered to the channel.
    EXPECT_EQ(medium.listeners_on(9)[0]->name(), "b");
    EXPECT_EQ(medium.listeners_on(9)[1]->name(), "c");

    b->stop_listening();
    ASSERT_EQ(medium.listeners_on(9).size(), 1u);
    c.reset();  // detach while tuned
    EXPECT_TRUE(medium.listeners_on(9).empty());
}

TEST_F(MediumFixture, ReTuneDuringInFlightFrameMovesInterest) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(20'000, [&] {
        rx->listen(9);
        EXPECT_TRUE(medium.listeners_on(7).empty());
        ASSERT_EQ(medium.listeners_on(9).size(), 1u);
    });
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());  // the re-tune dropped the lock
}

TEST_F(MediumFixture, DetachedLockedReceiverIsSafe) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(20'000, [&] { rx.reset(); });  // locked, mid-frame
    scheduler.run_all();
    EXPECT_EQ(tx->tx_done, 1);
    EXPECT_TRUE(medium.listeners_on(7).empty());
}

TEST_F(MediumFixture, RecycledReceiverAddressGetsItsOwnRxPower) {
    // A receiver dies mid-frame and a new one is built at the same address.
    // The in-flight frame's rx-power memo must not hand the newcomer the
    // dead receiver's power: 0.5 m from the jammer it was -33 dBm, which
    // would bury the newcomer's own frame (-40 dBm from 1 m); from 100 m the
    // jammer is ~-84 dBm and the frame arrives clean.
    auto jam = make("jam", {0, 0});
    auto tx = make("tx", {101, 0});
    RadioDeviceConfig cfg;
    cfg.name = "old";
    cfg.position = {0.5, 0};
    std::optional<ProbeDevice> slot;
    slot.emplace(scheduler, medium, Rng(7), cfg);
    const ProbeDevice* first_address = &*slot;
    slot->listen(7);
    jam->transmit(7, test_frame(200, 0x11));  // 1608 µs on air
    ASSERT_TRUE(slot->receiving());
    (void)scheduler.schedule_at(100'000, [&] {
        slot.reset();  // destroyed while locked on the jammer's frame
        cfg.name = "new";
        cfg.position = {100, 0};
        slot.emplace(scheduler, medium, Rng(7), cfg);
        slot->listen(7);
    });
    // Starts 1500 µs in: the first 13 bytes overlap the jammer's tail.
    (void)scheduler.schedule_at(1'500'000, [&] { tx->transmit(7, test_frame(16, 0x5A)); });
    scheduler.run_all();
    ASSERT_EQ(&*slot, first_address);
    ASSERT_EQ(slot->received.size(), 1u);
    EXPECT_FALSE(slot->received[0].corrupted_by_medium);
    EXPECT_EQ(slot->received[0].bytes, Bytes(16, 0x5A));
}

TEST(MediumRecords, ReusedRecordCarriesNoStaleRxPowerOrBytes) {
    // Frames 20 ms apart: garbage collection reclaims each finished record
    // 10 ms after it ends, and the next transmission reuses it.  Each frame
    // is shorter than the one whose record it takes, and fading gives every
    // (frame, receiver) pair its own power: a stale memo entry would repeat
    // an earlier frame's RSSI, a stale buffer would lengthen the frame.
    Scheduler scheduler;
    RadioMedium medium(scheduler, Rng(5));
    RadioDeviceConfig cfg;
    cfg.name = "tx";
    ProbeDevice tx(scheduler, medium, Rng(7), cfg);
    cfg.name = "rx";
    cfg.position = {1, 0};
    ProbeDevice rx(scheduler, medium, Rng(8), cfg);
    rx.listen(7);

    constexpr int kFrames = 8;
    for (int k = 0; k < kFrames; ++k) {
        (void)scheduler.schedule_at(k * 20_ms, [&, k] {
            rx.listen(7);
            tx.transmit(7, test_frame(static_cast<std::size_t>(80 - 8 * k),
                                      static_cast<std::uint8_t>(k)));
        });
    }
    scheduler.run_all();
    ASSERT_EQ(rx.received.size(), static_cast<std::size_t>(kFrames));
    for (int k = 0; k < kFrames; ++k) {
        const RxFrame& frame = rx.received[static_cast<std::size_t>(k)];
        const auto length = static_cast<std::size_t>(80 - 8 * k);
        EXPECT_EQ(frame.bytes, Bytes(length, static_cast<std::uint8_t>(k))) << "frame " << k;
        EXPECT_EQ(frame.end - frame.start, 8_us + static_cast<Duration>(length) * 8_us);
        for (int j = 0; j < k; ++j) {
            EXPECT_NE(frame.rssi_dbm, rx.received[static_cast<std::size_t>(j)].rssi_dbm)
                << "frame " << k << " repeats the power of frame " << j;
        }
    }
}

TEST_F(MediumFixture, TransmitterLeavesItsChannelInterestList) {
    // Half-duplex: transmit() drops the sender's own listen before the lock
    // walk, so a transmitter never sits in its channel's interest list.
    auto a = make("a", {0, 0});
    a->listen(7);
    ASSERT_EQ(medium.listeners_on(7).size(), 1u);
    a->transmit(7, test_frame(30));
    EXPECT_TRUE(medium.listeners_on(7).empty());
    scheduler.run_all();
    EXPECT_TRUE(a->received.empty());
}

/// The byte-at-a-time reference for capture_lottery: every byte re-tests
/// every interferer against its own airtime, draws a phase per overlapping
/// interferer (the last counts), then `u`, and decides with the exact
/// formula.
LotteryOutcome reference_lottery(const AirFrame& frame, TimePoint start,
                                 const std::vector<Interference>& interferers,
                                 double signal_dbm, double noise_mw, double noise_dbm,
                                 const CaptureModel& capture, Rng& rng, Bytes& bytes) {
    bytes = frame.bytes;
    LotteryOutcome out;
    const double p_noise_only = capture.byte_corruption_prob(signal_dbm - noise_dbm, 0.5);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const TimePoint byte_start =
            start + frame.preamble_time + static_cast<Duration>(i) * frame.byte_time;
        const TimePoint byte_end = byte_start + frame.byte_time;
        double phase = 0.5;
        double interference_mw = noise_mw;
        bool overlapped = false;
        for (const Interference& intf : interferers) {
            if (intf.start < byte_end && intf.end > byte_start) {
                phase = rng.next_double();
                interference_mw += intf.power_mw;
                overlapped = true;
            }
        }
        bool hit = false;
        if (!overlapped) {
            hit = rng.chance(p_noise_only);
        } else {
            const double sir_db = signal_dbm - 10.0 * std::log10(interference_mw);
            hit = rng.next_double() < capture.byte_corruption_prob(sir_db, phase);
        }
        if (hit) {
            bytes[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
            ++out.corrupted_bytes;
            if (i < frame.sync_bytes) ++out.sync_bit_errors;
        }
    }
    return out;
}

/// A time relative to a frame's bytes: before the frame, inside the
/// preamble, on a byte boundary, mid-byte, at the frame's end or after it.
TimePoint layout_time(Rng& rng, TimePoint start, const AirFrame& frame) {
    const TimePoint body = start + frame.preamble_time;
    const auto n = static_cast<Duration>(frame.bytes.size());
    const auto byte_at = [&](Duration i) { return body + i * frame.byte_time; };
    switch (rng.next_below(6)) {
        case 0: return start - 1 - static_cast<Duration>(rng.next_below(50'000));
        case 1: return start + static_cast<Duration>(rng.next_below(
                                   static_cast<std::uint64_t>(frame.preamble_time) + 1));
        case 2: return byte_at(static_cast<Duration>(rng.next_below(n + 1)));
        case 3:
            return byte_at(static_cast<Duration>(rng.next_below(n))) + 1 +
                   static_cast<Duration>(
                       rng.next_below(static_cast<std::uint64_t>(frame.byte_time - 1)));
        case 4: return byte_at(n);
        default: return byte_at(n) + 1 + static_cast<Duration>(rng.next_below(50'000));
    }
}

TEST(CaptureLottery, SegmentWalkMatchesTheByteAtATimeReference) {
    // Seeded differential test: random frames (5-260 B, LE 1M / 2M / coded
    // and odd byte times), 0-4 interferers starting and ending before the
    // frame, in the preamble, on byte boundaries, mid-byte and after the
    // frame, SNR and SIR from -40 to +80 dB, and capture parameters off the
    // defaults.  Both lotteries start from the same generator state and must
    // leave the same bytes, counts and generator state.
    std::vector<CaptureParams> params(4);
    params[1].phase_spread_db = 0.0;
    params[2].phase_spread_db = -3.0;  // inverted band: every overlapped draw is exact
    params[3].slope_db = 0.5;
    const double noise_mw = 1e-10;
    const double noise_dbm = 10.0 * std::log10(noise_mw);
    const Duration byte_times[] = {8_us, 4_us, 64_us, 7'919};
    Rng layout(424242);
    long overlapped_hits = 0;
    long noise_hits = 0;
    long lost_sync = 0;
    long interfered = 0;
    for (int trial = 0; trial < 100'000; ++trial) {
        const CaptureModel capture(params[trial % params.size()]);
        AirFrame frame;
        frame.bytes.resize(5 + layout.next_below(256));
        for (auto& b : frame.bytes) b = static_cast<std::uint8_t>(layout.next_below(256));
        frame.byte_time = byte_times[layout.next_below(4)];
        frame.preamble_time = frame.byte_time * (layout.next_below(2) == 0 ? 1 : 10);
        frame.sync_bytes = 4;
        const TimePoint start = 1_ms;
        const double signal_dbm = noise_dbm + layout.uniform(-40.0, 80.0);
        std::vector<Interference> interferers(layout.next_below(5));
        for (Interference& intf : interferers) {
            intf.start = layout_time(layout, start, frame);
            intf.end = layout_time(layout, start, frame);
            if (intf.end < intf.start) std::swap(intf.start, intf.end);
            const double sir_db = layout.uniform(-40.0, 80.0);
            intf.power_mw = std::pow(10.0, (signal_dbm - sir_db) / 10.0);
        }
        interfered += interferers.empty() ? 0 : 1;

        Rng segment_rng(layout.next_u64());
        Rng reference_rng = segment_rng;
        Bytes segment_bytes;
        Bytes reference_bytes;
        const LotteryOutcome got =
            capture_lottery(frame, start, interferers, signal_dbm, noise_mw, noise_dbm, capture,
                            segment_rng, segment_bytes);
        const LotteryOutcome want =
            reference_lottery(frame, start, interferers, signal_dbm, noise_mw, noise_dbm,
                              capture, reference_rng, reference_bytes);
        ASSERT_EQ(segment_bytes, reference_bytes) << "layout " << trial;
        ASSERT_EQ(got.corrupted_bytes, want.corrupted_bytes) << "layout " << trial;
        ASSERT_EQ(got.sync_bit_errors, want.sync_bit_errors) << "layout " << trial;
        ASSERT_EQ(segment_rng.next_u64(), reference_rng.next_u64()) << "layout " << trial;
        ASSERT_EQ(segment_rng.next_u64(), reference_rng.next_u64()) << "layout " << trial;

        lost_sync += want.sync_bit_errors > 2 ? 1 : 0;
        if (want.corrupted_bytes > 0) (interferers.empty() ? noise_hits : overlapped_hits) += 1;
    }
    // The layouts reach every path: corruption with and without
    // interferers, and lost sync.
    EXPECT_GT(interfered, 70'000);
    EXPECT_GT(overlapped_hits, 30'000);
    EXPECT_GT(noise_hits, 3'000);
    EXPECT_GT(lost_sync, 10'000);
}

// One serial log of everything every receiver heard, bit-exact: receiver
// name, payload, RSSI and the corruption flag, in attach/delivery order.
using DeliveryLog = std::vector<std::tuple<std::string, Bytes, double, bool>>;

DeliveryLog run_contended_scenario() {
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 6.0;  // per-listener fading draws exercise RNG order
    RadioMedium medium(scheduler, Rng(99), PathLossModel(pl));
    auto mk = [&](const std::string& name, Position pos, std::uint64_t seed) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(seed), cfg);
    };
    auto tx1 = mk("tx1", {0, 0}, 1);
    auto tx2 = mk("tx2", {3, 0}, 2);
    auto jam = mk("jam", {1.5, 1}, 3);
    auto r1 = mk("r1", {1, 0}, 4);
    auto r2 = mk("r2", {2, 0}, 5);
    auto r3 = mk("r3", {1, 1}, 6);
    auto r4 = mk("r4", {0, 2}, 7);
    for (int round = 0; round < 40; ++round) {
        r1->listen(7);
        r2->listen(7);
        r3->listen(7);
        r4->listen(9);
        tx1->transmit(7, test_frame(24, 0xAA));
        (void)scheduler.schedule_after(10'000, [&] { tx2->transmit(7, test_frame(24, 0xBB)); });
        (void)scheduler.schedule_after(30'000, [&] { jam->transmit(9, test_frame(12, 0xCC)); });
        scheduler.run_all();
    }
    DeliveryLog log;
    for (const ProbeDevice* d : {r1.get(), r2.get(), r3.get(), r4.get()}) {
        for (const RxFrame& f : d->received) {
            log.emplace_back(d->name(), f.bytes, f.rssi_dbm, f.corrupted_by_medium);
        }
    }
    return log;
}

/// FNV-1a over every field of the log, the RSSI by its bit pattern.
std::uint64_t digest(const DeliveryLog& log) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char*>(data)[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& [name, bytes, rssi, corrupted] : log) {
        mix(name.data(), name.size());
        mix(bytes.data(), bytes.size());
        mix(&rssi, sizeof rssi);
        mix(&corrupted, sizeof corrupted);
    }
    return h;
}

TEST(MediumDigest, ContendedScenarioIsPinned) {
    // Overlapping frames, fading and the per-byte capture lottery on two
    // channels: any change to a walk order, a fading or lottery draw, or a
    // corruption decision moves this digest.  Recorded before the medium's
    // all-device A/B walk was deleted.
    const DeliveryLog log = run_contended_scenario();
    EXPECT_EQ(log.size(), 151u);
    EXPECT_EQ(digest(log), 0x2b2c89988734450eULL);
}

}  // namespace
}  // namespace ble::sim
