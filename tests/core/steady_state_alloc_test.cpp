// Steady-state heap traffic of the race's frame path: once a link has run for
// a while, a connection event allocates nothing — neither for the victims
// exchanging empty PDUs, nor with a trace, metrics and pcap captures (both
// vantages) observing them, nor for an attacker following and injecting into
// their link, nor for the hosts carrying GATT reads and writes over L2CAP.
// And a whole trial on a restarted world allocates nothing either.  This
// executable replaces the global operator new to count calls, so it is built
// on its own.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/attacker_radio.hpp"
#include "core/session.hpp"
#include "core/sniffer.hpp"
#include "link/adv_pdu.hpp"
#include "link/device.hpp"
#include "link/trace.hpp"
#include "obs/capture/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "sim/world.hpp"
#include "world/experiment.hpp"
#include "world/world.hpp"

namespace {
bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
    if (g_counting) ++g_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace injectable {
namespace {

using namespace ble;  // NOLINT: time literals

/// Heap allocations made while `body` runs.
template <typename F>
std::size_t allocations_during(F&& body) {
    g_allocations = 0;
    g_counting = true;
    body();
    g_counting = false;
    return g_allocations;
}

/// A master/slave pair on a fading-free medium, and an attacker radio that
/// sniffs their CONNECT_REQ.
struct VictimLink : sim::RadioWorld {
    std::unique_ptr<link::LinkLayerDevice> peripheral;
    std::unique_ptr<link::LinkLayerDevice> central;
    std::unique_ptr<AttackerRadio> attacker;
    link::Connection* master = nullptr;
    link::Connection* slave = nullptr;
    std::optional<SniffedConnection> sniffed;
    int master_events = 0;

    VictimLink() : RadioWorld(quiet_rf(), 11) {
        peripheral = make_device("peripheral", {0.0, 0.0});
        central = make_device("central", {2.0, 0.0});
        sim::RadioDeviceConfig radio;
        radio.name = "attacker";
        radio.position = {1.0, 1.7};
        attacker = std::make_unique<AttackerRadio>(scheduler, medium, rng.fork(), radio);

        link::ConnectionHooks master_hooks;
        master_hooks.on_event_closed = [this](const link::ConnectionEventReport&) {
            ++master_events;
        };
        central->set_connection_hooks(std::move(master_hooks));
        central->on_connection_established = [this](link::Connection& c) { master = &c; };
        peripheral->on_connection_established = [this](link::Connection& c) { slave = &c; };

        AdvSniffer sniffer(*attacker);
        sniffer.on_connection = [this](const SniffedConnection& conn,
                                       const link::ConnectReqPdu&) { sniffed = conn; };
        sniffer.start();
        link::ConnectionParams params;
        params.hop_interval = 36;
        peripheral->start_advertising(link::make_adv_name("bulb"));
        central->connect_to(peripheral->address(), params);
        run_until(2_s, [this] { return master && slave && sniffed; });
        sniffer.stop();
    }

    static sim::RadioWorldSpec quiet_rf() {
        sim::RadioWorldSpec spec;
        spec.path_loss.fading_sigma_db = 0.0;
        return spec;
    }

    std::unique_ptr<link::LinkLayerDevice> make_device(const char* name, sim::Position pos) {
        link::LinkLayerDeviceConfig cfg;
        cfg.radio.name = name;
        cfg.radio.position = pos;
        cfg.address = link::DeviceAddress::random_static(rng);
        return std::make_unique<link::LinkLayerDevice>(scheduler, medium, rng.fork(),
                                                       std::move(cfg));
    }

    /// Runs until the master has closed `events` more connection events.
    void run_events(int events) {
        const int target = master_events + events;
        run_until(10_s, [&] { return master_events >= target; });
    }
};

constexpr int kWarmupEvents = 50;
constexpr int kMeasuredEvents = 200;

TEST(SteadyStateAllocations, EmptyPduExchangeAllocatesNothing) {
    VictimLink world;
    ASSERT_TRUE(world.master && world.slave);
    world.run_events(kWarmupEvents);

    const int before = world.master_events;
    const std::size_t allocations =
        allocations_during([&] { world.run_events(kMeasuredEvents); });
    EXPECT_GE(world.master_events - before, kMeasuredEvents);
    EXPECT_FALSE(world.master->closed());
    EXPECT_EQ(allocations, 0u) << "over " << world.master_events - before << " events";
}

TEST(SteadyStateAllocations, TracedExchangeAllocatesNothing) {
    VictimLink world;
    ASSERT_TRUE(world.master && world.slave);
    // Frames are described as in run_series.  The trace buffer grows over a
    // warm-up twice as long as the measured window, and clear() keeps it.
    obs::JsonlTraceSink trace(link::append_frame_description);
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics(registry);
    world.bus().attach(trace);
    world.bus().attach(metrics);
    world.run_events(kWarmupEvents + 2 * kMeasuredEvents);
    const std::size_t warmed_bytes = trace.str().size();
    trace.clear();

    const int before = world.master_events;
    const std::size_t allocations =
        allocations_during([&] { world.run_events(kMeasuredEvents); });
    EXPECT_GE(world.master_events - before, kMeasuredEvents);
    EXPECT_GT(trace.str().size(), 0u);
    EXPECT_LT(trace.str().size(), warmed_bytes);
    EXPECT_EQ(allocations, 0u) << "over " << world.master_events - before << " events";
    world.bus().detach(metrics);
    world.bus().detach(trace);
}

TEST(SteadyStateAllocations, CapturedExchangeAllocatesNothing) {
    VictimLink world;
    ASSERT_TRUE(world.master && world.slave);
    // Every observation channel of an observed trial at once, plus the
    // device vantage, which parks each frame until the peripheral's verdict.
    // The buffers grow over a warm-up twice as long as the measured window,
    // and clear() keeps their storage.
    obs::JsonlTraceSink trace(link::append_frame_description);
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics(registry);
    obs::capture::CaptureSink omniscient;
    obs::capture::CaptureSink sniffer({obs::capture::VantageKind::kDevice, "peripheral"});
    world.bus().attach(trace);
    world.bus().attach(metrics);
    world.bus().attach(omniscient);
    world.bus().attach(sniffer);
    world.run_events(kWarmupEvents + 2 * kMeasuredEvents);
    trace.clear();
    omniscient.builder().clear();
    sniffer.builder().clear();
    const std::size_t header_bytes = omniscient.pcap().size();

    const int before = world.master_events;
    const std::size_t allocations =
        allocations_during([&] { world.run_events(kMeasuredEvents); });
    EXPECT_GE(world.master_events - before, kMeasuredEvents);
    EXPECT_GT(omniscient.pcap().size(), header_bytes);
    EXPECT_GT(sniffer.pcap().size(), header_bytes);
    EXPECT_EQ(allocations, 0u) << "over " << world.master_events - before << " events";
    world.bus().detach(sniffer);
    world.bus().detach(omniscient);
    world.bus().detach(metrics);
    world.bus().detach(trace);
}

TEST(SteadyStateAllocations, GattReadWriteExchangeAllocatesNothing) {
    // The paper testbed's hosts: the Central's traffic pump alternates a read
    // of the bulb's name with an 18-byte write, each through ATT and L2CAP on
    // both sides, every connection event.
    world::WorldSpec spec = world::WorldSpec::protocol_test();
    spec.master_traffic_every_events = 1;
    world::World world(spec);
    int writes = 0;
    int events = 0;
    world.peripheral->att_server().find(world.scratch_handle)->on_write =
        [&writes](BytesView) -> std::optional<att::ErrorCode> {
        ++writes;
        return std::nullopt;
    };
    world.central->on_event_closed = [&events](const link::ConnectionEventReport&) {
        ++events;
    };
    world.begin_connection();
    ASSERT_TRUE(world.run_until(2_s, [&] {
        return world.central->connected() && world.peripheral->connected();
    }));
    world.start_traffic();
    world.run_until(10_s, [&] { return events >= kWarmupEvents; });
    ASSERT_GT(writes, 0);

    const int writes_before = writes;
    const int events_before = events;
    const std::size_t allocations = allocations_during([&] {
        world.run_until(10_s, [&] { return events >= events_before + kMeasuredEvents; });
    });
    EXPECT_GE(events - events_before, kMeasuredEvents);
    // Reads and writes alternate behind one request in flight, so the writes
    // counted here pace the reads as well.
    EXPECT_GE(writes - writes_before, kMeasuredEvents / 4);
    EXPECT_EQ(allocations, 0u) << "over " << writes - writes_before
                               << " writes and as many reads";
    world.stop_traffic();
}

TEST(SteadyStateAllocations, FollowingAndInjectingAllocatesNothing) {
    VictimLink world;
    ASSERT_TRUE(world.master && world.slave && world.sniffed);
    AttackSession session(*world.attacker, *world.sniffed);
    session.start();

    // Every request is built before the measured window, so re-arming from
    // the completion handler copies a payload into the session's kept buffer
    // instead of allocating one.
    std::vector<AttackSession::InjectionRequest> requests(kMeasuredEvents);
    std::size_t next = 0;
    int attempts = 0;
    int successes = 0;
    std::function<void(bool, int)> rearm = [&](bool success, int used) {
        successes += success ? 1 : 0;
        attempts += used;
        if (next < requests.size()) session.inject(std::move(requests[next++]));
    };
    for (auto& request : requests) {
        request.llid = link::Llid::kDataStart;
        request.payload = Bytes{0x05, 0x00, 0x04, 0x00, 0x12, 0x03, 0x00, 0x01};
        request.max_attempts = 4;
        request.done = [&](bool success, int used) { rearm(success, used); };
    }
    session.inject(std::move(requests[next++]));
    world.run_events(kWarmupEvents);
    ASSERT_GT(attempts, 0);

    const int attempts_before = attempts;
    const int successes_before = successes;
    const std::size_t allocations =
        allocations_during([&] { world.run_events(kMeasuredEvents); });
    EXPECT_GE(attempts - attempts_before, kMeasuredEvents / 4);
    EXPECT_GT(successes - successes_before, 0);
    EXPECT_FALSE(session.lost());
    EXPECT_EQ(allocations, 0u) << "over " << attempts - attempts_before << " attempts, "
                               << successes - successes_before << " injected";
}

TEST(SteadyStateAllocations, RestartedWorldTrialAllocatesNothing) {
    // A whole paper-baseline trial (establish and sniff, sync, inject) on a
    // world restarted to a seed it has already run: the restart and the trial
    // find every buffer, arena chunk, transmission record, connection object
    // and sink cell already grown.  Bare, then observed by the channels
    // run_series attaches (a trace, metrics and a pcap capture), which restart
    // for each world as they do there.
    world::ExperimentConfig bare;
    bare.world = world::WorldSpec::paper_baseline();
    constexpr std::uint64_t kSeed = 7;

    obs::JsonlTraceSink trace(link::append_frame_description);
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics(registry);
    obs::capture::CaptureSink capture;
    world::ExperimentConfig observed = bare;
    observed.per_trial_sinks = [&trace, &metrics, &capture](obs::EventBus& bus, std::uint64_t) {
        trace.clear();
        metrics.restart();
        capture.builder().clear();
        bus.attach(trace);
        bus.attach(metrics);
        bus.attach(capture);
    };

    for (const world::ExperimentConfig* config : {&bare, &observed}) {
        const bool with_sinks = config == &observed;
        world::World world(config->world, kSeed);
        const world::RunResult first = world::run_injection_experiment(world, *config, kSeed);
        ASSERT_TRUE(first.success);
        const std::size_t trace_bytes = trace.str().size();

        world::RunResult again;
        const std::size_t allocations = allocations_during([&] {
            world.restart(kSeed);
            again = world::run_injection_experiment(world, *config, kSeed);
        });
        EXPECT_EQ(again, first);
        EXPECT_EQ(trace.str().size(), trace_bytes);
        if (with_sinks) {
            EXPECT_GT(trace_bytes, 0u);
        }
        EXPECT_EQ(allocations, 0u) << (with_sinks ? "observed" : "bare") << " trial, "
                                   << again.attempts << " attempts";
    }
}

}  // namespace
}  // namespace injectable
