#include "world/replay.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "link/spec.hpp"
#include "link/trace.hpp"
#include "obs/sinks.hpp"

namespace injectable::world {

using namespace ble;

namespace {

using json::append_bool;
using json::append_int;
using json::append_str;
using json::append_u64;

// Doubles use %.17g: enough digits that strtod recovers the exact bit
// pattern, which is what makes a replayed world byte-identical to the
// recorded one.
void append_double(std::string& out, const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json::append_key(out, key);
    // %.17g can emit "inf"/"nan" which are not JSON; the specs never hold
    // them, but keep the line parseable regardless.
    if (std::isfinite(value)) {
        out += buf;
    } else {
        out += '0';
    }
}

std::string position_str(ble::sim::Position p) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g", p.x, p.y);
    return buf;
}

bool parse_position(const std::string& s, ble::sim::Position& out) {
    char* after = nullptr;
    out.x = std::strtod(s.c_str(), &after);
    if (after == s.c_str()) return false;
    char* after_y = nullptr;
    out.y = std::strtod(after, &after_y);
    return after_y != after;
}

/// Reads the ';'-separated "ax ay bx by loss_db" wall entries; false when an
/// entry does not hold exactly five numbers.
bool parse_walls(const std::string& s, std::vector<ble::sim::Wall>& out) {
    for (std::size_t pos = 0; pos < s.size();) {
        std::size_t semi = s.find(';', pos);
        if (semi == std::string::npos) semi = s.size();
        const std::string one = s.substr(pos, semi - pos);
        double field[5];
        const char* p = one.c_str();
        for (double& f : field) {
            char* after = nullptr;
            f = std::strtod(p, &after);
            if (after == p) return false;
            p = after;
        }
        if (*p != '\0') return false;
        out.push_back({{field[0], field[1]}, {field[2], field[3]}, field[4]});
        pos = semi + 1;
    }
    return true;
}

}  // namespace

std::string experiment_meta_json(const ExperimentConfig& config, std::uint64_t seed,
                                 int tries) {
    std::string out;
    experiment_meta_header(config, tries).write(out, seed);
    return out;
}

void MetaHeader::write(std::string& out, std::uint64_t seed) const {
    out.assign(prefix);
    json::append_u64(out, seed);
    out += suffix;
}

MetaHeader experiment_meta_header(const ExperimentConfig& config, int tries) {
    const WorldSpec& w = config.world;
    const AttackParams& a = w.attack;

    MetaHeader header;
    std::string& head = header.prefix;
    head += "{\"e\":\"meta\"";
    append_int(head, "v", kTraceMetaVersion);
    append_str(head, "name", config.name);
    json::append_key(head, "seed");

    std::string& out = header.suffix;
    out.reserve(1024);
    append_int(out, "tries", tries);
    append_int(out, "max_attempts", config.max_attempts);
    append_u64(out, "ll_payload_size", config.ll_payload_size);
    append_int(out, "llid", static_cast<int>(config.llid));
    if (config.payload_override) append_str(out, "payload_hex", to_hex(*config.payload_override));

    append_int(out, "hop_interval", w.hop_interval);
    append_int(out, "supervision_timeout", w.supervision_timeout);
    append_bool(out, "use_csa2", w.use_csa2);
    append_double(out, "master_sca_ppm", w.master_sca_ppm);
    append_double(out, "master_clock_ppm", w.master_clock_ppm);
    append_double(out, "slave_sca_ppm", w.slave_sca_ppm);
    append_double(out, "attacker_sca_ppm", w.attacker_sca_ppm);
    append_str(out, "peripheral_pos", position_str(w.peripheral_pos));
    append_str(out, "central_pos", position_str(w.central_pos));
    append_str(out, "attacker_pos", position_str(w.attacker_pos));
    if (!w.walls.empty()) {
        std::string walls;
        for (const auto& wall : w.walls) {
            if (!walls.empty()) walls += ';';
            char buf[200];
            std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %.17g %.17g", wall.a.x,
                          wall.a.y, wall.b.x, wall.b.y, wall.loss_db);
            walls += buf;
        }
        append_str(out, "walls", walls);
    }
    append_double(out, "fading_sigma_db", w.fading_sigma_db);
    append_double(out, "capture_mid_sir_db", w.capture.mid_sir_db);
    append_double(out, "capture_slope_db", w.capture.slope_db);
    append_double(out, "capture_phase_spread_db", w.capture.phase_spread_db);
    append_double(out, "widening_scale", w.widening_scale);
    append_bool(out, "encrypt_link", w.encrypt_link);

    append_double(out, "attack_assumed_slave_sca_ppm", a.assumed_slave_sca_ppm);
    append_int(out, "attack_listen_margin_ns", a.listen_margin);
    append_int(out, "attack_tx_latency_mean_ns", a.tx_latency_mean);
    append_int(out, "attack_tx_latency_sd_ns", a.tx_latency_sd);
    append_double(out, "attack_hiccup_prob", a.hiccup_prob);
    append_int(out, "attack_hiccup_max_ns", a.hiccup_max);
    append_int(out, "attack_turnaround_ns", a.turnaround_time);
    append_int(out, "attack_max_missed_events", a.max_missed_events);
    append_bool(out, "attack_apply_sniffed_updates", a.apply_sniffed_updates);
    append_bool(out, "attack_stop_on_terminate", a.stop_on_terminate);

    append_int(out, "master_traffic_every_events", w.master_traffic_every_events);
    append_int(out, "profile", static_cast<int>(w.profile));
    append_str(out, "peripheral_name", w.peripheral_name);
    append_str(out, "central_name", w.central_name);
    append_str(out, "attacker_name", w.attacker_name);
    append_str(out, "gap_device_name", w.gap_device_name);
    // Dense-environment crowd, only when enabled: baseline meta headers stay
    // byte-identical to every previous release.
    if (!w.dense.empty()) {
        append_int(out, "dense_advertisers", w.dense.advertisers);
        append_int(out, "dense_scanners", w.dense.scanners);
        append_int(out, "dense_connections", w.dense.connections);
        append_double(out, "dense_area_radius_m", w.dense.area_radius_m);
        append_int(out, "dense_adv_interval_ns", w.dense.adv_interval);
        append_int(out, "dense_min_hop_interval", w.dense.min_hop_interval);
        append_int(out, "dense_max_hop_interval", w.dense.max_hop_interval);
    }
    out += '}';
    return header;
}

TraceMeta parse_trace_meta(const std::string& line) {
    const json::ParseResult parsed = json::parse(line);
    if (!parsed.ok) {
        TraceMeta meta;
        meta.error = "meta parse error: " + parsed.error;
        return meta;
    }
    return parse_trace_meta(parsed.value);
}

TraceMeta parse_trace_meta(const json::Value& v) {
    TraceMeta meta;
    if (v.string_at("e") != "meta") {
        meta.error = "first trace line is not a meta header";
        return meta;
    }
    const std::int64_t version = v.i64("v", -1);
    if (version != kTraceMetaVersion) {
        meta.error = "unsupported meta version " + std::to_string(version);
        return meta;
    }

    // The header is outside input: a value the simulation cannot run (a
    // payload or crowd that allocates without bound, an interval that never
    // advances the clock, a budget that overflows) is rejected here, on the
    // 64-bit value before it is narrowed, naming the field.
    const auto bounded = [&v, &meta](const char* key, std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi, std::int64_t& out) {
        out = v.i64(key, fallback);
        if (out >= lo && out <= hi) return true;
        meta.error = std::string(key) + " " + std::to_string(out) + " outside " +
                     std::to_string(lo) + ".." + std::to_string(hi);
        return false;
    };
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    constexpr std::int64_t kMinHop = ble::link::kMinHopInterval;
    constexpr std::int64_t kMaxHop = ble::link::kMaxHopInterval;
    std::int64_t n = 0;

    meta.seed = v.u64("seed");
    meta.tries = static_cast<int>(v.i64("tries", kSetupRetries));

    ExperimentConfig& config = meta.config;
    config.name = v.string_at("name", "replay");
    config.runs = 1;
    config.base_seed = meta.seed;
    // run_injection_experiment budgets 4 * max_attempts + 64 connection
    // events in an int.
    if (!bounded("max_attempts", config.max_attempts, 0, (kIntMax - 64) / 4, n)) return meta;
    config.max_attempts = static_cast<int>(n);
    if (!bounded("ll_payload_size", static_cast<std::int64_t>(config.ll_payload_size), 0,
                 ble::link::kMaxDataPayloadBytes, n)) {
        return meta;
    }
    config.ll_payload_size = static_cast<std::size_t>(n);
    config.llid = static_cast<ble::link::Llid>(v.i64("llid", static_cast<int>(config.llid)));
    const std::string payload_hex = v.string_at("payload_hex");
    if (!payload_hex.empty()) {
        auto payload = from_hex(payload_hex);
        if (!payload) {
            meta.error = "bad payload_hex";
            return meta;
        }
        config.payload_override = std::move(*payload);
    }

    WorldSpec& w = config.world;
    if (!bounded("hop_interval", w.hop_interval, kMinHop, kMaxHop, n)) return meta;
    w.hop_interval = static_cast<std::uint16_t>(n);
    w.supervision_timeout =
        static_cast<std::uint16_t>(v.i64("supervision_timeout", w.supervision_timeout));
    w.use_csa2 = v.boolean_at("use_csa2", w.use_csa2);
    w.master_sca_ppm = v.number("master_sca_ppm", w.master_sca_ppm);
    w.master_clock_ppm = v.number("master_clock_ppm", w.master_clock_ppm);
    w.slave_sca_ppm = v.number("slave_sca_ppm", w.slave_sca_ppm);
    w.attacker_sca_ppm = v.number("attacker_sca_ppm", w.attacker_sca_ppm);
    if (!parse_position(v.string_at("peripheral_pos", position_str(w.peripheral_pos)),
                        w.peripheral_pos) ||
        !parse_position(v.string_at("central_pos", position_str(w.central_pos)),
                        w.central_pos) ||
        !parse_position(v.string_at("attacker_pos", position_str(w.attacker_pos)),
                        w.attacker_pos)) {
        meta.error = "bad position field";
        return meta;
    }
    if (!parse_walls(v.string_at("walls"), w.walls)) {
        meta.error = "bad walls field: an entry does not hold five numbers";
        return meta;
    }
    w.fading_sigma_db = v.number("fading_sigma_db", w.fading_sigma_db);
    w.capture.mid_sir_db = v.number("capture_mid_sir_db", w.capture.mid_sir_db);
    w.capture.slope_db = v.number("capture_slope_db", w.capture.slope_db);
    w.capture.phase_spread_db = v.number("capture_phase_spread_db", w.capture.phase_spread_db);
    w.widening_scale = v.number("widening_scale", w.widening_scale);
    w.encrypt_link = v.boolean_at("encrypt_link", w.encrypt_link);

    AttackParams& a = w.attack;
    a.assumed_slave_sca_ppm = v.number("attack_assumed_slave_sca_ppm", a.assumed_slave_sca_ppm);
    a.listen_margin = v.i64("attack_listen_margin_ns", a.listen_margin);
    a.tx_latency_mean = v.i64("attack_tx_latency_mean_ns", a.tx_latency_mean);
    a.tx_latency_sd = v.i64("attack_tx_latency_sd_ns", a.tx_latency_sd);
    a.hiccup_prob = v.number("attack_hiccup_prob", a.hiccup_prob);
    a.hiccup_max = v.i64("attack_hiccup_max_ns", a.hiccup_max);
    a.turnaround_time = v.i64("attack_turnaround_ns", a.turnaround_time);
    a.max_missed_events =
        static_cast<int>(v.i64("attack_max_missed_events", a.max_missed_events));
    a.apply_sniffed_updates =
        v.boolean_at("attack_apply_sniffed_updates", a.apply_sniffed_updates);
    a.stop_on_terminate = v.boolean_at("attack_stop_on_terminate", a.stop_on_terminate);

    w.master_traffic_every_events = static_cast<int>(
        v.i64("master_traffic_every_events", w.master_traffic_every_events));
    w.profile = static_cast<VictimProfile>(v.i64("profile", static_cast<int>(w.profile)));
    w.peripheral_name = v.string_at("peripheral_name", w.peripheral_name);
    w.central_name = v.string_at("central_name", w.central_name);
    w.attacker_name = v.string_at("attacker_name", w.attacker_name);
    w.gap_device_name = v.string_at("gap_device_name", w.gap_device_name);

    // Dense keys are absent from pre-dense (and baseline) headers; the
    // defaults are the empty crowd, so old traces parse unchanged.
    DenseEnvironment& d = w.dense;
    for (auto [key, count] : {std::pair{"dense_advertisers", &d.advertisers},
                              std::pair{"dense_scanners", &d.scanners},
                              std::pair{"dense_connections", &d.connections}}) {
        if (!bounded(key, *count, 0, kIntMax, n)) return meta;
        *count = static_cast<int>(n);
    }
    d.area_radius_m = v.number("dense_area_radius_m", d.area_radius_m);
    if (!bounded("dense_adv_interval_ns", d.adv_interval, 1,
                 std::numeric_limits<std::int64_t>::max(), d.adv_interval)) {
        return meta;
    }
    if (!bounded("dense_min_hop_interval", d.min_hop_interval, kMinHop, kMaxHop, n)) {
        return meta;
    }
    d.min_hop_interval = static_cast<std::uint16_t>(n);
    // The crowd draws each hop interval from [min, max]: max is bounded
    // below by the min just read (n).
    if (!bounded("dense_max_hop_interval", d.max_hop_interval, n, kMaxHop, n)) return meta;
    d.max_hop_interval = static_cast<std::uint16_t>(n);

    meta.valid = true;
    return meta;
}

ReplayDiff replay_trace_lines(const std::vector<std::string>& lines) {
    ReplayDiff diff;
    if (lines.empty()) {
        diff.error = "empty trace";
        return diff;
    }
    TraceMeta meta = parse_trace_meta(lines.front());
    if (!meta.valid) {
        diff.error = meta.error;
        return diff;
    }
    diff.seed = meta.seed;
    diff.recorded_events = lines.size() - 1;

    // Re-run the trial exactly as run_series recorded it: the trace emptied
    // for each world (each setup retry restarts it), the same frame
    // describer, the same retry policy.
    ExperimentConfig config = std::move(meta.config);
    obs::JsonlTraceSink trace(link::append_frame_description);
    config.per_trial_sinks = [&trace](obs::EventBus& bus, std::uint64_t) {
        trace.clear();
        bus.attach(trace);
    };
    World w(config.world, meta.seed);
    (void)run_injection_experiment_with_retry(w, config, meta.seed, meta.tries);
    diff.loaded = true;

    // The fresh event lines, viewed in place in the trace sink's one buffer.
    std::vector<std::string_view> fresh;
    for (std::string_view rest = trace.events(); !rest.empty();) {
        const std::size_t nl = rest.find('\n');
        fresh.push_back(rest.substr(0, nl));
        rest.remove_prefix(nl + 1);
    }
    diff.replayed_events = fresh.size();

    const std::size_t common = std::min(diff.recorded_events, fresh.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (lines[i + 1] != fresh[i]) {
            diff.first_divergence = i;
            diff.recorded_line = lines[i + 1];
            diff.replayed_line = std::string(fresh[i]);
            return diff;
        }
    }
    if (diff.recorded_events != diff.replayed_events) {
        diff.first_divergence = common;
        if (common < diff.recorded_events) diff.recorded_line = lines[common + 1];
        if (common < diff.replayed_events) diff.replayed_line = std::string(fresh[common]);
        return diff;
    }
    diff.identical = true;
    return diff;
}

ReplayDiff replay_trace_file(const std::string& path) {
    std::string error;
    const std::vector<std::string> lines = obs::read_jsonl_file(path, &error);
    if (lines.empty()) {
        ReplayDiff diff;
        diff.error = error.empty() ? "empty trace: " + path : error;
        return diff;
    }
    return replay_trace_lines(lines);
}

namespace {

/// Name of the first deterministic RunResult field that differs.
std::string first_differing_field(const RunResult& a, const RunResult& b) {
    if (a.success != b.success) return "success";
    if (a.attempts != b.attempts) return "attempts";
    if (a.established != b.established) return "established";
    if (a.sniffed != b.sniffed) return "sniffed";
    if (a.session_lost != b.session_lost) return "session_lost";
    if (a.victim_disconnected != b.victim_disconnected) return "victim_disconnected";
    if (a.heuristic_false_positives != b.heuristic_false_positives) return "heuristic_fp";
    if (a.heuristic_false_negatives != b.heuristic_false_negatives) return "heuristic_fn";
    return {};
}

}  // namespace

SeriesReplay replay_series_line(const std::string& line, int jobs) {
    SeriesReplay replay;
    const json::ParseResult parsed = json::parse(line);
    if (!parsed.ok) {
        replay.error = "series line parse error: " + parsed.error;
        return replay;
    }
    const json::Value& record = parsed.value;
    if (!record.is_object()) {
        replay.error = "series line is not a JSON object";
        return replay;
    }
    replay.name = record.string_at("experiment", "series");
    const json::Value* meta_obj = record.find("meta");
    if (meta_obj == nullptr || !meta_obj->is_object()) {
        replay.error =
            "record has no \"meta\" object (written before JSON-driven replay landed?)";
        return replay;
    }
    TraceMeta meta = parse_trace_meta(*meta_obj);
    if (!meta.valid) {
        replay.error = meta.error;
        return replay;
    }
    const json::Value* trials = record.find("trials");
    if (trials == nullptr || !trials->is_array()) {
        replay.error = "record has no \"trials\" array";
        return replay;
    }

    std::vector<RunResult> recorded;
    recorded.reserve(trials->array.size());
    for (const json::Value& trial : trials->array) {
        if (!trial.is_object()) {
            replay.error = "non-object trial entry";
            return replay;
        }
        recorded.push_back(run_result_from_json(trial));
    }
    replay.trials = static_cast<int>(recorded.size());

    const ExperimentConfig config = std::move(meta.config);  // callbacks are empty
    const int tries = meta.tries;
    TrialRunner runner(jobs);
    // One World per worker, restarted for each recorded seed as run_series
    // restarts it for each trial.
    const std::vector<RunResult> fresh = runner.map_with(
        replay.trials, [] { return std::unique_ptr<World>(); },
        [&](int i, std::unique_ptr<World>& world) {
            const std::uint64_t seed = recorded[static_cast<std::size_t>(i)].seed;
            if (world) {
                world->restart(seed);
            } else {
                world = std::make_unique<World>(config.world, seed);
            }
            return run_injection_experiment_with_retry(*world, config, seed, tries);
        });

    replay.loaded = true;
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        if (recorded[i] == fresh[i]) continue;  // wall_ms excluded by operator==
        ++replay.mismatches;
        SeriesTrialDiff diff;
        diff.seed = recorded[i].seed;
        diff.field = first_differing_field(recorded[i], fresh[i]);
        diff.recorded = recorded[i];
        diff.replayed = fresh[i];
        replay.diffs.push_back(std::move(diff));
    }
    return replay;
}

}  // namespace injectable::world
