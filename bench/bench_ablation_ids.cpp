// Ablation: the §VIII IDS against all four scenarios — detection rate, time
// to first alert, and the false-positive baseline on benign traffic.
#include <cstdio>
#include <memory>
#include <optional>

#include "core/scenarios.hpp"
#include "gatt/builder.hpp"
#include "ids/detector.hpp"
#include "obs/bus.hpp"
#include "world/world.hpp"

namespace {

using namespace injectable;
using namespace injectable::world;
using namespace ble;
using ble::ids::InjectionDetector;

WorldSpec ids_spec(std::uint64_t seed) {
    WorldSpec spec;  // paper baseline: fading office, declared 50 / real 30 ppm
    spec.seed = seed;
    spec.supervision_timeout = 300;
    spec.master_traffic_every_events = 0;
    return spec;
}

struct IdsRun : World {
    explicit IdsRun(std::uint64_t seed)
        : World(ids_spec(seed)), probe(make_attacker("ids-probe", {0.5, -1.0})) {}

    bool establish() {
        // The IDS probe must capture the same CONNECT_REQ the attacker does.
        AdvSniffer ids_sniffer(*probe);
        std::optional<SniffedConnection> ids_cap;
        ids_sniffer.on_connection = [&](const SniffedConnection& c,
                                        const link::ConnectReqPdu&) { ids_cap = c; };
        ids_sniffer.start();
        const auto atk_cap =
            establish_and_sniff(5_s, [&] { return ids_cap.has_value(); });
        ids_sniffer.stop();
        if (!atk_cap || !ids_cap) return false;
        detector = std::make_unique<InjectionDetector>(*probe, *ids_cap);
        alert_sub = obs::ScopedSubscription(bus(), [this](const obs::Event& event) {
            const auto* alert = std::get_if<obs::IdsAlert>(&event);
            if (alert != nullptr && !first_alert) first_alert = alert->time;
        });
        detector->start();
        attack_t0 = scheduler.now();
        start_session(400_ms);
        return true;
    }

    std::unique_ptr<AttackerRadio> probe;
    std::unique_ptr<InjectionDetector> detector;
    std::optional<TimePoint> first_alert;  ///< time of the first IDS alert
    obs::ScopedSubscription alert_sub;     // writes first_alert; destroyed before it
    TimePoint attack_t0 = 0;
};

struct DetectRow {
    int runs = 0;
    int attack_ok = 0;
    int detected = 0;
    double latency_ms_sum = 0;
};

void print_detect_row(const char* name, const DetectRow& row) {
    std::printf("%-28s %7d %11d %10d %12.0f\n", name, row.runs, row.attack_ok,
                row.detected,
                row.detected ? row.latency_ms_sum / row.detected : 0.0);
}

}  // namespace

int main() {
    std::printf("=== Ablation: IDS detection (paper §VIII, solution 3), 15 runs ===\n\n");
    std::printf("%-28s %7s %11s %10s %12s\n", "workload", "runs", "attack ok",
                "detected", "latency(ms)");

    constexpr int kRuns = 15;

    // Benign baseline: no attack, busy GATT traffic.
    {
        DetectRow row;
        for (int i = 0; i < kRuns; ++i) {
            IdsRun run(9800 + static_cast<std::uint64_t>(i));
            if (!run.establish()) continue;
            run.session.stop();
            ++row.runs;
            for (int k = 0; k < 10; ++k) {
                run.central->gatt().write_command(
                    run.bulb.control_handle(),
                    gatt::LightbulbProfile::cmd_set_brightness(
                        static_cast<std::uint8_t>(k * 10)));
                run.scheduler.run_until(run.scheduler.now() + 500_ms);
            }
            if (run.first_alert) ++row.detected;  // false positive
        }
        print_detect_row("benign (FP baseline)", row);
    }

    // Scenario A.
    {
        DetectRow row;
        for (int i = 0; i < kRuns; ++i) {
            IdsRun run(9810 + static_cast<std::uint64_t>(i));
            if (!run.establish()) continue;
            ++row.runs;
            ScenarioA scenario(run.session);
            std::optional<ScenarioA::Result> result;
            scenario.inject_write(run.bulb.control_handle(),
                                  gatt::LightbulbProfile::cmd_set_power(false),
                                  [&](const ScenarioA::Result& r) { result = r; });
            run.run_until(60_s, [&] { return result.has_value(); });
            run.scheduler.run_until(run.scheduler.now() + 2_s);
            if (result && result->success) ++row.attack_ok;
            if (run.first_alert) {
                ++row.detected;
                row.latency_ms_sum += to_ms(*run.first_alert - run.attack_t0);
            }
        }
        print_detect_row("scenario A (ATT inject)", row);
    }

    // Scenario B.
    {
        DetectRow row;
        for (int i = 0; i < kRuns; ++i) {
            IdsRun run(9830 + static_cast<std::uint64_t>(i));
            if (!run.establish()) continue;
            ++row.runs;
            ble::att::AttServer fake;
            gatt::GattBuilder builder(fake);
            gatt::add_gap_service(builder, "Hacked");
            ScenarioB scenario(run.session, fake);
            std::optional<ScenarioB::Result> result;
            scenario.execute([&](const ScenarioB::Result& r) { result = r; });
            run.run_until(60_s, [&] { return result.has_value(); });
            run.scheduler.run_until(run.scheduler.now() + 2_s);
            if (result && result->success) ++row.attack_ok;
            if (run.first_alert) {
                ++row.detected;
                row.latency_ms_sum += to_ms(*run.first_alert - run.attack_t0);
            }
        }
        print_detect_row("scenario B (slave hijack)", row);
    }

    // Scenario C.
    {
        DetectRow row;
        for (int i = 0; i < kRuns; ++i) {
            IdsRun run(9850 + static_cast<std::uint64_t>(i));
            if (!run.establish()) continue;
            ++row.runs;
            ScenarioC scenario(run.session);
            std::optional<ScenarioC::Result> result;
            scenario.execute([&](const ScenarioC::Result& r) { result = r; });
            run.run_until(120_s, [&] { return result.has_value(); });
            run.scheduler.run_until(run.scheduler.now() + 3_s);
            if (result && result->success) ++row.attack_ok;
            if (run.first_alert) {
                ++row.detected;
                row.latency_ms_sum += to_ms(*run.first_alert - run.attack_t0);
            }
        }
        print_detect_row("scenario C (master hijack)", row);
    }

    std::printf(
        "\nExpected shape: zero alerts on benign traffic. Update-based hijacks\n"
        "(C/D) are always caught — their double-anchor transmit window is a\n"
        "gross timing signature. Terminate hijacks are caught when the probe\n"
        "decodes the injected PDU or its timing shift. Single-frame ATT\n"
        "injections (A) are the stealthiest: the anchor shifts by only\n"
        "(widening - attacker latency), sometimes inside the legitimate drift\n"
        "envelope — the residual the paper's RF-fingerprinting IDS [13] exists\n"
        "to cover.\n");
    return 0;
}
