#include "world/world.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/bus.hpp"

namespace injectable::world {

using namespace ble;

WorldSpec WorldSpec::protocol_test() {
    WorldSpec spec;
    spec.fading_sigma_db = 0.0;         // deterministic RF unless a test wants it
    spec.master_sca_ppm = 0.0;          // declare the actual crystal bound
    spec.master_clock_ppm = 50.0;
    spec.supervision_timeout = 300;     // generous: tests probe protocol, not drops
    spec.master_traffic_every_events = 0;
    return spec;
}

WorldSpec WorldSpec::office() {
    WorldSpec spec;
    spec.dense.advertisers = 24;
    spec.dense.scanners = 8;
    spec.dense.connections = 6;
    spec.dense.area_radius_m = 8.0;
    return spec;
}

WorldSpec WorldSpec::stadium() {
    WorldSpec spec;
    spec.dense.advertisers = 400;
    spec.dense.scanners = 60;
    spec.dense.connections = 60;
    spec.dense.area_radius_m = 50.0;
    return spec;
}

WorldSpec WorldSpec::parking_lot() {
    WorldSpec spec;
    spec.dense.advertisers = 80;
    spec.dense.scanners = 6;
    spec.dense.connections = 4;
    spec.dense.area_radius_m = 30.0;
    // Keyfobs and beacons advertise lazily.
    spec.dense.adv_interval = milliseconds(250);
    return spec;
}

sim::RadioWorldSpec WorldSpec::rf() const {
    sim::RadioWorldSpec rf_spec;
    rf_spec.path_loss.fading_sigma_db = fading_sigma_db;
    rf_spec.walls = walls;
    rf_spec.capture = capture;
    return rf_spec;
}

std::uint16_t WorldSpec::supervision_field() const {
    if (supervision_timeout != 0) return supervision_timeout;
    // >= 6 connection intervals, >= 1 s; in 10 ms units.
    const auto ms = static_cast<std::uint32_t>(hop_interval) * 125 / 100;
    return static_cast<std::uint16_t>(std::clamp<std::uint32_t>(ms * 8 / 10, 100, 3200));
}

link::ConnectionParams WorldSpec::connection_params() const {
    link::ConnectionParams params;
    params.hop_interval = hop_interval;
    params.timeout = supervision_field();
    return params;
}

namespace {

host::PeripheralConfig peripheral_config(const WorldSpec& spec) {
    host::PeripheralConfig cfg;
    cfg.name = spec.peripheral_name;
    cfg.radio.position = spec.peripheral_pos;
    cfg.radio.clock.sca_ppm = spec.slave_sca_ppm;
    cfg.widening_scale = spec.widening_scale;
    cfg.support_csa2 = spec.use_csa2;
    return cfg;
}

host::CentralConfig central_config(const WorldSpec& spec) {
    host::CentralConfig cfg;
    cfg.name = spec.central_name;
    cfg.radio.position = spec.central_pos;
    cfg.radio.clock.sca_ppm = spec.master_clock_ppm;
    cfg.declared_sca_ppm = spec.master_sca_ppm;
    cfg.support_csa2 = spec.use_csa2;
    return cfg;
}

sim::RadioDeviceConfig attacker_config(const WorldSpec& spec) {
    sim::RadioDeviceConfig cfg;
    cfg.name = spec.attacker_name;
    cfg.position = spec.attacker_pos;
    cfg.clock.sca_ppm = spec.attacker_sca_ppm;
    return cfg;
}

}  // namespace

// The devices are built on copies of the root stream as placeholders;
// restart() gives each its own fork, in the contract's order.
World::World(WorldSpec world_spec, std::uint64_t seed)
    : RadioWorld(world_spec.rf(), seed),
      spec(std::move(world_spec)),
      peripheral(std::make_unique<host::Peripheral>(scheduler, medium, rng,
                                                    peripheral_config(spec))),
      central(std::make_unique<host::Central>(scheduler, medium, rng, central_config(spec))),
      attacker(std::make_unique<AttackerRadio>(scheduler, medium, rng, attacker_config(spec))),
      session(*attacker),
      sniffer_(*attacker) {
    if (spec.profile == VictimProfile::kLightbulb) {
        bulb.install(peripheral->att_server(), spec.gap_device_name);
        att::Attribute scratch;
        scratch.type = att::Uuid::from16(0xFF77);
        scratch.writable = true;
        scratch_handle = peripheral->att_server().add(std::move(scratch));
    }
    restart(seed);
}

World::World(WorldSpec world_spec) : World(world_spec, world_spec.seed) {}

World::~World() { stop_traffic(); }

void World::restart(std::uint64_t new_seed) {
    // Stop the previous trial's activity while the devices it touches are
    // still attached, then rewind the substrate.
    sniffer_.stop();
    sniffer_.on_connection = nullptr;
    sniffer_.on_advertisement = nullptr;
    session.restart(SniffedConnection{}, spec.attack);
    crowd.reset();
    RadioWorld::restart(new_seed);

    // Fork order is the reproducibility contract: medium (in RadioWorld),
    // then peripheral, central, attacker.
    peripheral->restart(rng.fork());
    bulb.restart();
    central->restart(rng.fork());
    attacker->restart(rng.fork());
    // The crowd forks *after* every baseline device, so enabling density
    // appends to the RNG tree instead of shifting the baseline streams.
    if (!spec.dense.empty()) {
        crowd = build_crowd(scheduler, medium, rng.fork(), spec.dense);
    }
    sniffed.reset();
    injection.done = nullptr;
    traffic_ = Traffic{};
}

void World::begin_connection() {
    peripheral->start();
    central->connect(peripheral->address(), spec.connection_params());
}

std::optional<SniffedConnection> World::establish_and_sniff(
    Duration budget, const std::function<bool()>& also_wait_for) {
    std::optional<SniffedConnection> captured;
    sniffer_.on_connection = [&captured](const SniffedConnection& conn,
                                         const link::ConnectReqPdu&) { captured = conn; };
    sniffer_.start();
    begin_connection();

    run_until(budget, [&] {
        return captured && central->connected() && peripheral->connected() &&
               (!also_wait_for || also_wait_for());
    });
    sniffer_.stop();
    sniffer_.on_connection = nullptr;
    sniffed = captured;
    const bool established = central->connected() && peripheral->connected();
    emit_phase("establish", established ? (captured ? "established sniffed"
                                                    : "established not-sniffed")
                                        : "failed");
    if (!established) return std::nullopt;
    return captured;
}

bool World::encrypt() {
    crypto::Aes128Key ltk{};
    for (std::size_t i = 0; i < ltk.size(); ++i) {
        ltk[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    peripheral->set_ltk(ltk);
    central->start_encryption(ltk);
    scheduler.run_until(scheduler.now() + 10 * connection_interval(spec.hop_interval));
    const bool ok = central->encrypted();
    emit_phase("encrypt", ok ? "ok" : "failed");
    return ok;
}

AttackSession& World::start_session(Duration sync_budget) {
    session.restart(*sniffed, spec.attack);
    session.start();
    scheduler.run_until(scheduler.now() + sync_budget);
    emit_phase("sync");
    return session;
}

void World::start_traffic() {
    if (spec.master_traffic_every_events <= 0 || scratch_handle == 0) return;
    if (traffic_.timer != sim::kInvalidEvent) return;  // already pumping
    pump_traffic();
}

void World::stop_traffic() {
    if (traffic_.timer == sim::kInvalidEvent) return;
    scheduler.cancel(traffic_.timer);
    traffic_.timer = sim::kInvalidEvent;
}

void World::pump_traffic() {
    // Alternating GATT name reads and telemetry writes, so the master's
    // frames carry real payloads instead of empty polls (the paper's
    // Mirage/smartphone masters were not silent pollers).
    static constexpr auto kTelemetry = [] {
        std::array<std::uint8_t, 18> bytes{};
        bytes.fill(0x5A);
        return bytes;
    }();
    if (central->connected() && central->gatt().queued() < 2) {
        if (++traffic_.beat % 2 == 0) {
            central->gatt().read(bulb.name_handle(), nullptr);
        } else {
            central->gatt().write(scratch_handle, kTelemetry, nullptr);
        }
    }
    const Duration period =
        connection_interval(spec.hop_interval) * spec.master_traffic_every_events;
    traffic_.timer = scheduler.schedule_after(period, [this] { pump_traffic(); });
}

void World::emit_phase(std::string_view phase, std::string_view detail) {
    auto& b = bus();
    if (!b.active()) return;
    ble::obs::TrialPhase event;
    event.time = scheduler.now();
    event.seed = seed;
    event.phase = phase;
    event.detail = detail;
    b.emit(event);
}

std::unique_ptr<AttackerRadio> World::make_attacker(const std::string& name,
                                                    sim::Position pos) {
    sim::RadioDeviceConfig cfg;
    cfg.name = name;
    cfg.position = pos;
    cfg.clock.sca_ppm = spec.attacker_sca_ppm;
    return std::make_unique<AttackerRadio>(scheduler, medium, rng.fork(), cfg);
}

}  // namespace injectable::world
