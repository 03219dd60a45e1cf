// Micro-benchmarks (google-benchmark) for the hot primitives: the simulation
// runs millions of these per experiment, and the attacker-side primitives
// (CRC reversal, channel prediction) bound how fast real tooling can sync.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/ccm.hpp"
#include "link/channel_selection.hpp"
#include "obs/capture/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/work_counters.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"
#include "phy/whitening.hpp"
#include "sim/radio_device.hpp"
#include "sim/scheduler.hpp"
#include "world/experiment.hpp"
#include "world/world.hpp"

namespace {

using namespace ble;

void BM_Crc24(benchmark::State& state) {
    Bytes pdu(static_cast<std::size_t>(state.range(0)), 0x5A);
    for (auto _ : state) {
        benchmark::DoNotOptimize(phy::crc24(pdu, 0x555555));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc24)->Arg(10)->Arg(27)->Arg(255);

void BM_Crc24Reverse(benchmark::State& state) {
    Bytes pdu(27, 0x5A);
    const std::uint32_t crc = phy::crc24(pdu, 0x123456);
    for (auto _ : state) {
        benchmark::DoNotOptimize(phy::crc24_reverse(pdu, crc));
    }
}
BENCHMARK(BM_Crc24Reverse);

void BM_Whitening(benchmark::State& state) {
    Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state) {
        phy::whiten(37, data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Whitening)->Arg(27)->Arg(255);

void BM_Aes128Encrypt(benchmark::State& state) {
    crypto::Aes128Key key{};
    key[0] = 0x42;
    const crypto::Aes128 aes(key);
    crypto::Aes128Block block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block.data());
    }
}
BENCHMARK(BM_Aes128Encrypt);

void BM_CcmSeal(benchmark::State& state) {
    crypto::Aes128Key key{};
    const crypto::AesCcm ccm(key);
    crypto::CcmNonce nonce{};
    Bytes payload(static_cast<std::size_t>(state.range(0)), 0x77);
    const Bytes aad{0x02};
    for (auto _ : state) {
        benchmark::DoNotOptimize(ccm.seal(nonce, aad, payload));
    }
}
BENCHMARK(BM_CcmSeal)->Arg(27)->Arg(251);

void BM_Csa1(benchmark::State& state) {
    link::Csa1 csa(7, link::ChannelMap{});
    std::uint16_t counter = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(csa.channel_for_event(counter++));
    }
}
BENCHMARK(BM_Csa1);

void BM_Csa2(benchmark::State& state) {
    link::Csa2 csa(0xAF9A9CD4, link::ChannelMap{});
    std::uint16_t counter = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(csa.channel_for_event(counter++));
    }
}
BENCHMARK(BM_Csa2);

void BM_FrameRoundTrip(benchmark::State& state) {
    const Bytes pdu{0x0A, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (auto _ : state) {
        const auto frame = phy::make_air_frame(0xAF9A9CD4, pdu, 0x555555);
        benchmark::DoNotOptimize(phy::split_frame(frame.bytes));
    }
}
BENCHMARK(BM_FrameRoundTrip);

void BM_SchedulerChurn(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler scheduler;
        for (int i = 0; i < 1000; ++i) {
            // injectable-lint: allow(D4) -- churn bench measures the discard path
            (void)scheduler.schedule_at(i * 10, [] {});
        }
        scheduler.run_all();
        benchmark::DoNotOptimize(scheduler.now());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

// ---------------------------------------------------------------------------
// Observability overhead: the medium emits a TxStart + RxDecision pair per
// frame, so per-event dispatch cost bounds what always-on instrumentation
// costs a campaign.  Three rungs: a bare bus (emit() short-circuits on
// active()==false), the lock-free CounterSink, and the full MetricsSink
// (registry counters + log2 histograms).

obs::Event make_rx_event() {
    obs::RxDecision rx;
    rx.time = 1'000'000;
    rx.channel = 17;
    rx.verdict = obs::RxVerdict::kDelivered;
    rx.rssi_dbm = -61.5;
    return obs::Event(rx);
}

void BM_ObsEmitNoSinks(benchmark::State& state) {
    obs::EventBus bus;
    const obs::Event event = make_rx_event();
    for (auto _ : state) {
        bus.emit(event);
        benchmark::DoNotOptimize(bus.active());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEmitNoSinks);

void BM_ObsEmitCounterSink(benchmark::State& state) {
    obs::EventBus bus;
    obs::CounterSink counters;
    bus.attach(counters);
    const obs::Event event = make_rx_event();
    for (auto _ : state) {
        bus.emit(event);
    }
    benchmark::DoNotOptimize(counters.snapshot().rx_delivered);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEmitCounterSink);

void BM_ObsEmitMetricsSink(benchmark::State& state) {
    obs::EventBus bus;
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics(registry);
    bus.attach(metrics);
    const obs::Event event = make_rx_event();
    for (auto _ : state) {
        bus.emit(event);
    }
    benchmark::DoNotOptimize(registry.snapshot().counters.size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEmitMetricsSink);

void BM_PcapSinkFrame(benchmark::State& state) {
    // Per-frame cost of the omniscient capture sink (DESIGN.md §14): one
    // TxStart append — record construction plus the frame-byte copy.  This is
    // the marginal cost INJECTABLE_PCAP_DIR adds to every on-air frame.
    obs::EventBus bus;
    obs::capture::CaptureSink sink;
    bus.attach(sink);
    const std::vector<std::uint8_t> frame_bytes(26, 0x5A);  // 22B frame + AA
    obs::TxStart tx;
    tx.time = 1'000'000;
    tx.channel = 17;
    tx.sender = "phone";
    tx.bytes = frame_bytes;
    tx.duration = 176'000;
    tx.tx_power_dbm = 0.0;
    std::uint64_t tx_id = 0;
    for (auto _ : state) {
        tx.tx_id = tx_id++;
        bus.emit(obs::Event(tx));
    }
    benchmark::DoNotOptimize(sink.records().size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcapSinkFrame);

void BM_InjectionTrialBaseline(benchmark::State& state) {
    // One full paper-style trial (connect + sniff + inject) with no work
    // counters installed — the reference for the observed rungs below.
    injectable::world::ExperimentConfig config;
    config.name = "bench-micro-trial";
    config.max_attempts = 200;
    std::uint64_t seed = 7000;
    for (auto _ : state) {
        const auto result = injectable::world::run_injection_experiment(config, seed++);
        benchmark::DoNotOptimize(result.attempts);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InjectionTrialBaseline);

void BM_CaptureOmniscientTrial(benchmark::State& state) {
    // The identical trial with an omniscient CaptureSink attached and the
    // pcap image serialized per trial — what the captures channel
    // (INJECTABLE_PCAP_DIR) costs end to end.  Acceptance budget: within 3%
    // of BM_InjectionTrialBaseline; both land in BENCH_micro.json so CI can
    // diff the ratio across PRs.
    injectable::world::ExperimentConfig config;
    config.name = "bench-micro-trial";
    config.max_attempts = 200;
    std::shared_ptr<obs::capture::CaptureSink> sink;
    config.per_trial_sinks = [&sink](obs::EventBus& bus, std::uint64_t) {
        sink = std::make_shared<obs::capture::CaptureSink>();
        bus.attach(*sink);
    };
    std::uint64_t seed = 7000;
    for (auto _ : state) {
        const auto result = injectable::world::run_injection_experiment(config, seed++);
        benchmark::DoNotOptimize(result.attempts);
        const std::string pcap = sink->pcap_bytes();
        benchmark::DoNotOptimize(pcap.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaptureOmniscientTrial);

void BM_InjectionTrialProfiled(benchmark::State& state) {
    // The identical trial with the INJECTABLE_PROF=1 work counters installed:
    // the delta over BM_InjectionTrialBaseline is what counting costs a trial.
    injectable::world::ExperimentConfig config;
    config.name = "bench-micro-trial";
    config.max_attempts = 200;
    std::uint64_t seed = 7000;
    for (auto _ : state) {
        obs::work::Counters counts;
        const obs::work::Install install(&counts);
        const auto result = injectable::world::run_injection_experiment(config, seed++);
        benchmark::DoNotOptimize(result.attempts);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InjectionTrialProfiled);


// ---------------------------------------------------------------------------
// Crowded-spectrum engine (DESIGN.md §10).  BM_DenseWorldTransmit pumps the
// stadium-mix world scaled to N devices for one second of crowd traffic
// through the per-channel medium indexes.  CI records these in
// BENCH_micro.json.

injectable::world::WorldSpec dense_bench_spec(std::int64_t devices) {
    // Scale the stadium mix (580 devices at x1.0) to the requested count.
    auto spec = injectable::world::WorldSpec::stadium();
    spec.dense = spec.dense.scaled(static_cast<double>(devices) /
                                   static_cast<double>(spec.dense.device_count()));
    spec.master_traffic_every_events = 0;  // crowd traffic only
    return spec;
}

void BM_DenseWorldTransmit(benchmark::State& state) {
    const auto spec = dense_bench_spec(state.range(0));
    for (auto _ : state) {
        injectable::world::World world(spec, 42);
        world.run_for(seconds(1));
        benchmark::DoNotOptimize(world.scheduler.now());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DenseWorldTransmit)->Arg(100)->Arg(500)->Arg(1000)->Unit(benchmark::kMillisecond);

// One transmission end to end with N idle crowd devices attached — the
// realistic dense case: most radios are not tuned to the transmit channel
// at any instant, so the per-channel interest list it walks stays empty and
// the cost must not grow with N.

class IdleDevice final : public sim::RadioDevice {
public:
    using sim::RadioDevice::RadioDevice;
    void on_rx(const sim::RxFrame&) override {}
};

void BM_DenseWorldMediumWalk(benchmark::State& state) {
    sim::Scheduler scheduler;
    sim::PathLossParams pl;
    pl.fading_sigma_db = 0.0;
    sim::RadioMedium medium(scheduler, Rng(5), sim::PathLossModel(pl));
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<std::unique_ptr<IdleDevice>> crowd;
    crowd.reserve(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "d" + std::to_string(i);
        cfg.position = {static_cast<double>(i % 32), static_cast<double>(i / 32)};
        crowd.push_back(std::make_unique<IdleDevice>(scheduler, medium, Rng(i), cfg));
    }
    sim::AirFrame frame;
    frame.bytes = Bytes(4, 0xA5);
    for (auto _ : state) {
        crowd[0]->transmit(7, frame);
        // Run well past the frame plus the GC horizon so active_ stays tiny:
        // what remains is the per-transmission walk cost under test.
        scheduler.run_for(milliseconds(20));
    }
    benchmark::DoNotOptimize(medium.active_transmissions());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseWorldMediumWalk)->Arg(100)->Arg(500)->Arg(1000);

void BM_DenseWorldTrial(benchmark::State& state) {
    // A full injection trial inside a busy office: the end-to-end cost of
    // attacking through a crowd, not just pumping one.
    injectable::world::ExperimentConfig config;
    config.name = "bench-dense-trial";
    config.max_attempts = 200;
    config.world = injectable::world::WorldSpec::office();
    std::uint64_t seed = 7500;
    for (auto _ : state) {
        const auto result = injectable::world::run_injection_experiment(config, seed++);
        benchmark::DoNotOptimize(result.attempts);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseWorldTrial)->Unit(benchmark::kMillisecond);

void BM_SchedulerCancelChurn(benchmark::State& state) {
    // The calendar queue's O(1) cancel-and-erase path: schedule/cancel pairs
    // that a heap with tombstones would accumulate until dispatch.  Storage
    // stays bounded (see scheduler_test churn regression) and cancelled
    // entries never reach the dispatch loop.
    for (auto _ : state) {
        sim::Scheduler scheduler;
        for (int i = 0; i < 1000; ++i) {
            const auto id = scheduler.schedule_at(i * 10, [] {});
            scheduler.cancel(id);
        }
        scheduler.run_all();
        benchmark::DoNotOptimize(scheduler.storage_entries());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelChurn);

void BM_RngU64(benchmark::State& state) {
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.next_u64());
    }
}
BENCHMARK(BM_RngU64);

}  // namespace

BENCHMARK_MAIN();

// --- A/B micro-rungs for the crowded-spectrum refactor (twin copy lives in
// the pre-refactor baseline tree for interleaved comparison) ---------------
namespace {

class BenchIdleDevice final : public sim::RadioDevice {
public:
    using sim::RadioDevice::RadioDevice;
    void on_rx(const sim::RxFrame&) override {}
};

void BM_MediumListenChurn(benchmark::State& state) {
    sim::Scheduler scheduler;
    sim::PathLossParams pl;
    pl.fading_sigma_db = 0.0;
    sim::RadioMedium medium(scheduler, Rng(5), sim::PathLossModel(pl));
    std::vector<std::unique_ptr<BenchIdleDevice>> devs;
    for (int i = 0; i < 3; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "d" + std::to_string(i);
        cfg.position = {static_cast<double>(i), 0.0};
        devs.push_back(std::make_unique<BenchIdleDevice>(scheduler, medium, Rng(i), cfg));
    }
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            devs[0]->listen(7);
            devs[0]->stop_listening();
        }
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MediumListenChurn);

void BM_MediumDeliverSmallWorld(benchmark::State& state) {
    sim::Scheduler scheduler;
    sim::PathLossParams pl;
    pl.fading_sigma_db = 0.0;
    sim::RadioMedium medium(scheduler, Rng(5), sim::PathLossModel(pl));
    std::vector<std::unique_ptr<BenchIdleDevice>> devs;
    for (int i = 0; i < 3; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "d" + std::to_string(i);
        cfg.position = {static_cast<double>(i), 0.0};
        devs.push_back(std::make_unique<BenchIdleDevice>(scheduler, medium, Rng(i), cfg));
    }
    sim::AirFrame frame;
    frame.bytes = Bytes(16, 0xA5);
    for (auto _ : state) {
        devs[1]->listen(7);
        devs[2]->listen(7);
        devs[0]->transmit(7, frame);
        scheduler.run_for(ble::milliseconds(1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumDeliverSmallWorld);

}  // namespace

namespace {
void BM_SchedulerSparseHop(benchmark::State& state) {
    // Events 45 ms apart — one connection interval — the spacing a real
    // trial's scheduler actually sees.
    sim::Scheduler scheduler;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            // injectable-lint: allow(D4) -- churn bench measures the discard path
            (void)scheduler.schedule_after(static_cast<ble::Duration>(i) * 45'000'000, [] {});
        }
        scheduler.run_all();
        benchmark::DoNotOptimize(scheduler.now());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerSparseHop);
}  // namespace

namespace {
void BM_MediumDeliverObserved(benchmark::State& state) {
    // The deliver bench again, but with a live subscriber — the trial-time
    // configuration, where TxStart/RxDecision payloads are actually built.
    sim::Scheduler scheduler;
    sim::PathLossParams pl;
    pl.fading_sigma_db = 0.0;
    sim::RadioMedium medium(scheduler, Rng(5), sim::PathLossModel(pl));
    std::uint64_t seen = 0;
    obs::ScopedSubscription sub(medium.bus(),
                                [&seen](const obs::Event&) { ++seen; });
    std::vector<std::unique_ptr<BenchIdleDevice>> devs;
    for (int i = 0; i < 3; ++i) {
        sim::RadioDeviceConfig cfg;
        cfg.name = "d" + std::to_string(i);
        cfg.position = {static_cast<double>(i), 0.0};
        devs.push_back(std::make_unique<BenchIdleDevice>(scheduler, medium, Rng(i), cfg));
    }
    sim::AirFrame frame;
    frame.bytes = Bytes(16, 0xA5);
    for (auto _ : state) {
        devs[1]->listen(7);
        devs[2]->listen(7);
        devs[0]->transmit(7, frame);
        scheduler.run_for(ble::milliseconds(1));
    }
    benchmark::DoNotOptimize(seen);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumDeliverObserved);
}  // namespace

namespace {
void BM_WorldConstruct(benchmark::State& state) {
    const injectable::world::WorldSpec spec = injectable::world::WorldSpec::paper_baseline();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        injectable::world::World world(spec, seed++);
        benchmark::DoNotOptimize(world.scheduler.now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldConstruct);
}  // namespace
