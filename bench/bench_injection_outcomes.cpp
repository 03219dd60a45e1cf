// Figure 5: the three possible outcomes of an injection attempt —
//  (a) injected frame lands entirely before the legitimate one,
//  (b) it collides with the legitimate frame (success iff the collision does
//      not corrupt it),
//  (c) the legitimate frame wins the race.
//
// We sweep the attacker's deliberate TX delay across the receive window and
// classify every attempt with the attacker's own Eq. 7 signals. As the delay
// grows the outcome mass moves a -> b -> c, mapping the paper's figure onto
// measured frequencies.
#include <atomic>
#include <cstdio>

#include "obs/bus.hpp"
#include "world/experiment.hpp"

int main() {
    using namespace injectable;
    using namespace injectable::world;
    using namespace ble;

    std::printf("=== Injection outcome anatomy (paper Fig. 5) ===\n");
    std::printf("hop 36, short 4-byte payload (14 B / 112 us over the air),\n");
    std::printf("TX delayed by D microseconds past the window start (w ~= 35 us)\n\n");
    std::printf("%8s %9s %10s %12s %12s %10s\n", "D (us)", "attempts", "(a)+(b) ok",
                "(b) corrupt", "(c) master", "no rsp");

    for (int delay_us : {0, 10, 20, 30, 40, 60, 90, 120}) {
        // run_series fans trials out on worker threads; each trial's bus
        // delivers its attempts on that trial's worker, so accumulate into
        // atomics (the printed totals are order-independent and stay
        // deterministic).
        std::atomic<int> ok{0}, corrupt{0}, master_won{0}, silent{0}, total{0};
        ExperimentConfig config;
        config.world.hop_interval = 36;
        config.ll_payload_size = 4;
        config.runs = 40;
        config.max_attempts = 10;  // sample attempts, not time-to-success
        config.base_seed = 6000 + static_cast<std::uint64_t>(delay_us);
        config.world.attack.tx_latency_mean = microseconds(delay_us);
        config.world.attack.tx_latency_sd = 0;
        config.world.attack.hiccup_prob = 0.0;
        config.world.attack.turnaround_time = 0;
        config.per_trial_sinks = [&](obs::EventBus& bus, std::uint64_t) {
            bus.subscribe([&](const obs::Event& event) {
                const auto* attempt = std::get_if<obs::InjectionAttempt>(&event);
                if (attempt == nullptr || attempt->report == nullptr) return;
                const AttemptReport& report = *attempt->report;
                ++total;
                if (!report.verdict.response_seen) {
                    ++silent;
                } else if (!report.verdict.timing_ok) {
                    ++master_won;  // slave anchored on the legitimate frame
                } else if (!report.verdict.flow_ok) {
                    ++corrupt;  // anchored on us, CRC failed
                } else {
                    ++ok;
                }
            });
        };
        (void)run_series(config);
        const int n = total.load();
        std::printf("%8d %9d %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n", delay_us, n,
                    100.0 * ok.load() / n, 100.0 * corrupt.load() / n,
                    100.0 * master_won.load() / n, 100.0 * silent.load() / n);
    }
    std::printf(
        "\nExpected shape: a small delay (~10-30 us) wins the race (outcomes\n"
        "a/b); as the delay crosses the widening the legitimate master wins\n"
        "(outcome c dominates, success collapses to 0). D = 0 is the window\n"
        "EDGE: the slave's own receive window also opens w early, so firing\n"
        "exactly there races the slave's listen-start and half the frames are\n"
        "never heard — which is why the attacker keeps a small TX latency\n"
        "margin (paper §V-C transmits \"as soon as possible\", not earlier).\n"
        "Past the edge (D >= 40) residual successes come from desync chaos the\n"
        "repeated jam-like collisions cause, not from winning clean races.\n");
    return 0;
}
