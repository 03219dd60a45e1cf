// The world layer: one definition of "the paper's testbed".
//
// Every consumer of the simulation — the §VII sensitivity benches, the attack
// test fixtures and the examples — needs the same Central/Peripheral/attacker
// world: a radio medium with path loss and capture, two victim hosts with
// configurable sleep clocks, an attacker radio, a GATT profile on the victim
// slave, and optionally the chatty host traffic real masters generate.
// WorldSpec describes that world declaratively; World owns it and exposes the
// attack's phases (establish+sniff, encrypt, synchronise) as helpers, so call
// sites compose phases instead of hand-wiring devices.
//
// Reproducibility contract: a World is a pure function of (spec, seed).
// restart() forks the root RNG in a fixed order (medium, peripheral,
// central, attacker, crowd); helpers that draw randomness (encrypt(), payload
// generation in the experiment harness) use the root stream afterwards.  The
// constructor builds the devices and then runs restart(), so a world
// restarted to a seed and a world built with it replay the same simulation.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/attacker_radio.hpp"
#include "core/session.hpp"
#include "core/sniffer.hpp"
#include "gatt/profiles.hpp"
#include "host/central.hpp"
#include "host/peripheral.hpp"
#include "sim/world.hpp"
#include "world/dense.hpp"

namespace injectable::world {

/// Which GATT personality the victim Peripheral exposes.  kLightbulb is the
/// paper's target device (and provides ground truth via its command counter);
/// kNone leaves the ATT server empty for callers that install their own
/// profile (HID keyboard, smartwatch, keyfob, ...).
enum class VictimProfile { kLightbulb, kNone };

/// Declarative description of the full attack testbed.  Defaults are the
/// canonical paper Fig. 8 baseline: victims and attacker on a 2 m equilateral
/// triangle in a fading office environment, hop interval 36, a master that
/// declares 50 ppm but runs a 30 ppm crystal, and background GATT traffic.
struct WorldSpec {
    std::uint64_t seed = 1;

    // Connection parameters.
    std::uint16_t hop_interval = 36;
    /// Supervision timeout field (10 ms units); 0 derives the spec minimum
    /// (>= 6 connection intervals, >= 1 s) from the hop interval.
    std::uint16_t supervision_timeout = 0;
    /// Negotiate Channel Selection Algorithm #2 between the victims.
    bool use_csa2 = false;

    // Sleep clocks.
    /// SCA the master *declares* in CONNECT_REQ (sets the widening window);
    /// 0 = declare the actual crystal bound.
    double master_sca_ppm = 50.0;
    /// The master crystal's real envelope (typically well below declared).
    double master_clock_ppm = 30.0;
    double slave_sca_ppm = 20.0;
    double attacker_sca_ppm = 20.0;

    // Geometry (paper Fig. 8: 2 m equilateral triangle by default).
    ble::sim::Position peripheral_pos{0.0, 0.0};
    ble::sim::Position central_pos{2.0, 0.0};
    ble::sim::Position attacker_pos{1.0, 1.732};
    std::vector<ble::sim::Wall> walls;

    // RF model.  The paper's testbed is a realistic office ("including
    // several other BLE devices and multiple WiFi routers"); per-frame
    // log-normal fading is what re-rolls the collision outcome on every hop.
    double fading_sigma_db = 6.0;
    ble::sim::CaptureParams capture{};

    // Victim-side counter-measure knobs (paper §VIII).
    double widening_scale = 1.0;  ///< 1.0 = spec widening (solution 1 shrinks it)
    bool encrypt_link = false;    ///< turn on LL encryption after connecting

    // Attacker model (TX turnaround latency, assumed slave SCA, ...).
    AttackParams attack{};

    /// Legitimate host traffic: the Central keeps issuing GATT requests like
    /// a real host stack.  Expressed in connection events between requests;
    /// 0 disables.  Only pumped for the kLightbulb profile.
    int master_traffic_every_events = 2;

    /// Background population (empty by default — the paper's testbed).  The
    /// crowd's RNG is forked off the world root *after* every baseline
    /// device, so enabling it never perturbs the baseline stream, and a
    /// paper-baseline spec with `dense` left empty stays byte-identical to
    /// every previous release.
    DenseEnvironment dense{};

    // Victim identities.
    VictimProfile profile = VictimProfile::kLightbulb;
    std::string peripheral_name = "bulb";
    std::string central_name = "phone";
    std::string attacker_name = "attacker";
    /// GATT Device Name the profile advertises.
    std::string gap_device_name = "SmartBulb";

    /// The canonical paper Fig. 8 testbed (same as a default-constructed
    /// spec; spelled out for call sites that want to be explicit).
    [[nodiscard]] static WorldSpec paper_baseline() { return {}; }

    /// Deterministic protocol-test preset: fading off, silent master, a
    /// generous supervision timeout, master declaring its real 50 ppm bound.
    /// Every RF failure a test sees under this spec is a protocol failure.
    [[nodiscard]] static WorldSpec protocol_test();

    // Dense-environment presets: the paper baseline plus a seeded crowd.
    /// A busy open-plan office: ~40 extra radios in an 8 m radius.
    [[nodiscard]] static WorldSpec office();
    /// Stadium-grade density: 580 extra radios (400 advertisers, 60
    /// scanners, 60 coexisting connections) in a 50 m radius.
    [[nodiscard]] static WorldSpec stadium();
    /// A parking lot of beacons/keyfobs: sparse connections, many
    /// advertisers, 30 m radius.
    [[nodiscard]] static WorldSpec parking_lot();

    [[nodiscard]] ble::sim::RadioWorldSpec rf() const;
    /// Supervision timeout field actually used (resolves the 0 sentinel).
    [[nodiscard]] std::uint16_t supervision_field() const;
    [[nodiscard]] ble::link::ConnectionParams connection_params() const;
};

/// The built testbed.  Members are public fixture-style: tests and examples
/// reach into the devices directly.
struct World : ble::sim::RadioWorld {
    explicit World(WorldSpec world_spec);
    /// Same spec, different seed — the per-trial form used by TrialRunner.
    World(WorldSpec world_spec, std::uint64_t seed);
    ~World() override;

    /// Back to exactly the state World(spec, seed) constructs, in place: the
    /// scheduler, medium, hosts, attacker radio, session and sniffer keep
    /// their storage (buffers, arena chunks, transmission records, the
    /// connection objects, the GATT attributes with their handles), every
    /// pending event and bus subscriber is dropped, the GATT values and the
    /// bulb state go back to their installed values, and the on_* hooks a
    /// trial set on the hosts and the session are cleared.  A dense crowd is
    /// rebuilt.  The constructor runs this too.  Radios from make_attacker()
    /// are not restarted: destroy them first.
    void restart(std::uint64_t new_seed);

    // --- phase helpers (the attack's timeline, in order) ---

    /// Starts the Peripheral advertising and the Central connecting, without
    /// arming any sniffer (for callers that drive their own capture, e.g. the
    /// dongle protocol).
    void begin_connection();

    /// Arms the sniffer on the attacker radio, establishes the legitimate
    /// connection and returns the captured CONNECT_REQ parameters once both
    /// the connection and the capture are up (also stored in `sniffed`).
    /// `also_wait_for` lets callers keep the loop running until their own
    /// capture (e.g. an IDS probe's sniffer) is up as well.
    std::optional<SniffedConnection> establish_and_sniff(
        ble::Duration budget = ble::seconds(10),
        const std::function<bool()>& also_wait_for = {});

    /// Turns on LL encryption between the victims with a random LTK (paper
    /// §VIII solution 2).  Returns false if the procedure did not complete.
    bool encrypt();

    /// Points `session` at the sniffed parameters, starts following the
    /// hopping and runs the scheduler for `sync_budget` so the widening
    /// estimate settles.  Requires a prior successful establish_and_sniff().
    AttackSession& start_session(ble::Duration sync_budget = ble::milliseconds(400));

    /// Starts/stops the background GATT traffic pump (no-op when the spec
    /// disables traffic or the profile has no attributes to poke).
    void start_traffic();
    void stop_traffic();

    /// Forks a further attacker-grade radio off this world's RNG tree (IDS
    /// probes, the MitM's second front-end, ...).
    std::unique_ptr<AttackerRadio> make_attacker(const std::string& name,
                                                 ble::sim::Position pos);

    /// Publishes an obs::TrialPhase marker (keyed by this world's seed) on
    /// the bus; phase helpers call it, and harnesses may add their own marks.
    void emit_phase(std::string_view phase, std::string_view detail = {});

    WorldSpec spec;
    std::unique_ptr<ble::host::Peripheral> peripheral;
    std::unique_ptr<ble::host::Central> central;
    std::unique_ptr<AttackerRadio> attacker;
    /// The background population (null when spec.dense is empty).
    std::unique_ptr<Crowd> crowd;
    /// Installed on the peripheral iff `spec.profile == kLightbulb`.
    ble::gatt::LightbulbProfile bulb;
    /// Benign vendor attribute the traffic pump writes telemetry to (real
    /// hosts are chatty; keeps master frames realistically sized without
    /// touching the bulb's command counter used for ground truth).
    std::uint16_t scratch_handle = 0;

    std::optional<SniffedConnection> sniffed;
    /// The attack session on `attacker`: idle until start_session() (or a
    /// harness, via AttackSession::restart) points it at a connection.
    AttackSession session;
    /// The request run_injection_experiment() hands `session`, kept so that
    /// its payload buffer keeps its storage from one trial to the next.
    AttackSession::InjectionRequest injection;

private:
    void pump_traffic();

    /// Captures the CONNECT_REQ for establish_and_sniff().
    AdvSniffer sniffer_;

    /// The traffic pump's state; restart() assigns it back to these values.
    struct Traffic {
        ble::sim::EventId timer = ble::sim::kInvalidEvent;
        int beat = 0;
    };
    Traffic traffic_;
};

}  // namespace injectable::world
