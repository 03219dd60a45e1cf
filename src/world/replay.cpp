#include "world/replay.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "link/spec.hpp"
#include "link/trace.hpp"
#include "obs/sinks.hpp"

namespace injectable::world {

using namespace ble;

namespace {

// ---------------------------------------------------------------------------
// Serialization helpers.  Doubles use %.17g: enough digits that strtod
// recovers the exact bit pattern, which is what makes a replayed world
// byte-identical to the recorded one.

void append_double(std::string& out, const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += ",\"";
    out += key;
    out += "\":";
    // %.17g can emit "inf"/"nan" which are not JSON; the specs never hold
    // them, but keep the line parseable regardless.
    if (std::isfinite(value)) {
        out += buf;
    } else {
        out += '0';
    }
}

void append_int(std::string& out, const char* key, long long value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void append_u64(std::string& out, const char* key, std::uint64_t value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void append_bool(std::string& out, const char* key, bool value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += value ? "true" : "false";
}

void append_str(std::string& out, const char* key, std::string_view value) {
    out += ",\"";
    out += key;
    out += "\":\"";
    ble::obs::append_json_escaped(out, value);
    out += '"';
}

std::string position_str(ble::sim::Position p) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g", p.x, p.y);
    return buf;
}

// ---------------------------------------------------------------------------
// A minimal flat-JSON-object parser: the meta line is written by us and holds
// only string / number / bool values, so this stays self-contained (no
// third-party JSON dependency in the container).

struct JsonValue {
    enum class Kind { kString, kNumber, kBool } kind = Kind::kNumber;
    std::string str;
    double num = 0.0;
    long long int_val = 0;
    std::uint64_t uint_val = 0;
    bool boolean = false;
};

using JsonObject = std::map<std::string, JsonValue>;

struct Parser {
    const char* p;
    const char* end;
    std::string error;

    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
    }
    bool fail(const std::string& message) {
        if (error.empty()) error = message;
        return false;
    }
    bool expect(char c) {
        skip_ws();
        if (p >= end || *p != c) return fail(std::string("expected '") + c + "'");
        ++p;
        return true;
    }
    bool parse_string(std::string& out) {
        if (!expect('"')) return false;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end) return fail("dangling escape");
            const char esc = *p++;
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (end - p < 4) return fail("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = *p++;
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else return fail("bad \\u escape");
                    }
                    // Our writer only emits \u00xx (Latin-1 bytes); decode
                    // anything else as UTF-8 for robustness.
                    if (code < 0x100) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: return fail("unknown escape");
            }
        }
        if (p >= end) return fail("unterminated string");
        ++p;  // closing quote
        return true;
    }
    bool parse_value(JsonValue& out) {
        skip_ws();
        if (p >= end) return fail("truncated value");
        if (*p == '"') {
            out.kind = JsonValue::Kind::kString;
            return parse_string(out.str);
        }
        if (*p == 't' || *p == 'f') {
            const bool value = *p == 't';
            const char* word = value ? "true" : "false";
            const std::size_t len = std::strlen(word);
            if (static_cast<std::size_t>(end - p) < len || std::strncmp(p, word, len) != 0) {
                return fail("bad literal");
            }
            p += len;
            out.kind = JsonValue::Kind::kBool;
            out.boolean = value;
            return true;
        }
        if (*p == '{' || *p == '[') return fail("nested values not supported in meta");
        // Number: capture the raw token, parse as double AND as integers so
        // 64-bit seeds survive exactly.
        const char* start = p;
        while (p < end && *p != ',' && *p != '}' && *p != ' ') ++p;
        const std::string token(start, p);
        if (token.empty()) return fail("empty number");
        out.kind = JsonValue::Kind::kNumber;
        out.num = std::strtod(token.c_str(), nullptr);
        out.int_val = std::strtoll(token.c_str(), nullptr, 10);
        out.uint_val = std::strtoull(token.c_str(), nullptr, 10);
        return true;
    }
    bool parse_object(JsonObject& out) {
        if (!expect('{')) return false;
        skip_ws();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parse_string(key)) return false;
            if (!expect(':')) return false;
            JsonValue value;
            if (!parse_value(value)) return false;
            out.emplace(std::move(key), std::move(value));
            skip_ws();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            return expect('}');
        }
    }
};

struct MetaReader {
    const JsonObject& obj;
    std::string missing;

    const JsonValue* find(const char* key) {
        const auto it = obj.find(key);
        if (it == obj.end()) {
            if (missing.empty()) missing = key;
            return nullptr;
        }
        return &it->second;
    }
    std::string str(const char* key, std::string fallback = {}) {
        const JsonValue* v = find(key);
        return v != nullptr && v->kind == JsonValue::Kind::kString ? v->str
                                                                   : std::move(fallback);
    }
    double number(const char* key, double fallback = 0.0) {
        const JsonValue* v = find(key);
        return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->num : fallback;
    }
    long long integer(const char* key, long long fallback = 0) {
        const JsonValue* v = find(key);
        return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->int_val : fallback;
    }
    std::uint64_t u64(const char* key, std::uint64_t fallback = 0) {
        const JsonValue* v = find(key);
        return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->uint_val : fallback;
    }
    bool boolean(const char* key, bool fallback = false) {
        const JsonValue* v = find(key);
        return v != nullptr && v->kind == JsonValue::Kind::kBool ? v->boolean : fallback;
    }
};

bool parse_position(const std::string& s, ble::sim::Position& out) {
    char* after = nullptr;
    out.x = std::strtod(s.c_str(), &after);
    if (after == s.c_str()) return false;
    char* after_y = nullptr;
    out.y = std::strtod(after, &after_y);
    return after_y != after;
}

}  // namespace

std::string experiment_meta_json(const ExperimentConfig& config, std::uint64_t seed,
                                 int tries) {
    const WorldSpec& w = config.world;
    const AttackParams& a = w.attack;

    std::string out;
    out.reserve(1024);
    out += "{\"e\":\"meta\"";
    append_int(out, "v", kTraceMetaVersion);
    append_str(out, "name", config.name);
    append_u64(out, "seed", seed);
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
    return out;
}

TraceMeta parse_trace_meta(const std::string& line) {
    TraceMeta meta;
    Parser parser{line.data(), line.data() + line.size(), {}};
    JsonObject obj;
    if (!parser.parse_object(obj)) {
        meta.error = "meta parse error: " + parser.error;
        return meta;
    }
    MetaReader r{obj, {}};
    if (r.str("e") != "meta") {
        meta.error = "first trace line is not a meta header";
        return meta;
    }
    const long long version = r.integer("v", -1);
    if (version != kTraceMetaVersion) {
        meta.error = "unsupported meta version " + std::to_string(version);
        return meta;
    }

    meta.seed = r.u64("seed");
    meta.tries = static_cast<int>(r.integer("tries", kSetupRetries));

    ExperimentConfig& config = meta.config;
    config.name = r.str("name", "replay");
    config.runs = 1;
    config.jobs = 1;
    config.base_seed = meta.seed;
    config.max_attempts = static_cast<int>(r.integer("max_attempts", config.max_attempts));
    // The header is outside input: a payload size or hop interval outside
    // what the Core Spec allows would make the replay allocate without bound
    // or never advance the clock, so reject it here.
    const std::uint64_t payload_size = r.u64("ll_payload_size", config.ll_payload_size);
    if (payload_size > ble::link::kMaxDataPayloadBytes) {
        meta.error = "ll_payload_size " + std::to_string(payload_size) + " above " +
                     std::to_string(ble::link::kMaxDataPayloadBytes);
        return meta;
    }
    config.ll_payload_size = static_cast<std::size_t>(payload_size);
    config.llid = static_cast<ble::link::Llid>(r.integer("llid", static_cast<int>(config.llid)));
    const std::string payload_hex = r.str("payload_hex");
    if (!payload_hex.empty()) {
        auto payload = from_hex(payload_hex);
        if (!payload) {
            meta.error = "bad payload_hex";
            return meta;
        }
        config.payload_override = std::move(*payload);
    }

    WorldSpec& w = config.world;
    const long long hop_interval = r.integer("hop_interval", w.hop_interval);
    if (hop_interval < ble::link::kMinHopInterval || hop_interval > ble::link::kMaxHopInterval) {
        meta.error = "hop_interval " + std::to_string(hop_interval) + " outside " +
                     std::to_string(ble::link::kMinHopInterval) + ".." +
                     std::to_string(ble::link::kMaxHopInterval);
        return meta;
    }
    w.hop_interval = static_cast<std::uint16_t>(hop_interval);
    w.supervision_timeout =
        static_cast<std::uint16_t>(r.integer("supervision_timeout", w.supervision_timeout));
    w.use_csa2 = r.boolean("use_csa2", w.use_csa2);
    w.master_sca_ppm = r.number("master_sca_ppm", w.master_sca_ppm);
    w.master_clock_ppm = r.number("master_clock_ppm", w.master_clock_ppm);
    w.slave_sca_ppm = r.number("slave_sca_ppm", w.slave_sca_ppm);
    w.attacker_sca_ppm = r.number("attacker_sca_ppm", w.attacker_sca_ppm);
    if (!parse_position(r.str("peripheral_pos", position_str(w.peripheral_pos)),
                        w.peripheral_pos) ||
        !parse_position(r.str("central_pos", position_str(w.central_pos)), w.central_pos) ||
        !parse_position(r.str("attacker_pos", position_str(w.attacker_pos)), w.attacker_pos)) {
        meta.error = "bad position field";
        return meta;
    }
    const std::string walls = r.str("walls");
    std::size_t pos = 0;
    while (pos < walls.size()) {
        std::size_t semi = walls.find(';', pos);
        if (semi == std::string::npos) semi = walls.size();
        const std::string one = walls.substr(pos, semi - pos);
        ble::sim::Wall wall;
        char* q = nullptr;
        const char* s = one.c_str();
        wall.a.x = std::strtod(s, &q);
        wall.a.y = std::strtod(q, &q);
        wall.b.x = std::strtod(q, &q);
        wall.b.y = std::strtod(q, &q);
        wall.loss_db = std::strtod(q, &q);
        w.walls.push_back(wall);
        pos = semi + 1;
    }
    w.fading_sigma_db = r.number("fading_sigma_db", w.fading_sigma_db);
    w.capture.mid_sir_db = r.number("capture_mid_sir_db", w.capture.mid_sir_db);
    w.capture.slope_db = r.number("capture_slope_db", w.capture.slope_db);
    w.capture.phase_spread_db = r.number("capture_phase_spread_db", w.capture.phase_spread_db);
    w.widening_scale = r.number("widening_scale", w.widening_scale);
    w.encrypt_link = r.boolean("encrypt_link", w.encrypt_link);

    AttackParams& a = w.attack;
    a.assumed_slave_sca_ppm = r.number("attack_assumed_slave_sca_ppm", a.assumed_slave_sca_ppm);
    a.listen_margin = r.integer("attack_listen_margin_ns", a.listen_margin);
    a.tx_latency_mean = r.integer("attack_tx_latency_mean_ns", a.tx_latency_mean);
    a.tx_latency_sd = r.integer("attack_tx_latency_sd_ns", a.tx_latency_sd);
    a.hiccup_prob = r.number("attack_hiccup_prob", a.hiccup_prob);
    a.hiccup_max = r.integer("attack_hiccup_max_ns", a.hiccup_max);
    a.turnaround_time = r.integer("attack_turnaround_ns", a.turnaround_time);
    a.max_missed_events =
        static_cast<int>(r.integer("attack_max_missed_events", a.max_missed_events));
    a.apply_sniffed_updates = r.boolean("attack_apply_sniffed_updates", a.apply_sniffed_updates);
    a.stop_on_terminate = r.boolean("attack_stop_on_terminate", a.stop_on_terminate);

    w.master_traffic_every_events = static_cast<int>(
        r.integer("master_traffic_every_events", w.master_traffic_every_events));
    w.profile = static_cast<VictimProfile>(r.integer("profile", static_cast<int>(w.profile)));
    w.peripheral_name = r.str("peripheral_name", w.peripheral_name);
    w.central_name = r.str("central_name", w.central_name);
    w.attacker_name = r.str("attacker_name", w.attacker_name);
    w.gap_device_name = r.str("gap_device_name", w.gap_device_name);

    // Dense keys are absent from pre-dense (and baseline) headers; the
    // defaults are the empty crowd, so old traces parse unchanged.
    DenseEnvironment& d = w.dense;
    d.advertisers = static_cast<int>(r.integer("dense_advertisers", d.advertisers));
    d.scanners = static_cast<int>(r.integer("dense_scanners", d.scanners));
    d.connections = static_cast<int>(r.integer("dense_connections", d.connections));
    d.area_radius_m = r.number("dense_area_radius_m", d.area_radius_m);
    d.adv_interval = r.integer("dense_adv_interval_ns", d.adv_interval);
    d.min_hop_interval =
        static_cast<std::uint16_t>(r.integer("dense_min_hop_interval", d.min_hop_interval));
    d.max_hop_interval =
        static_cast<std::uint16_t>(r.integer("dense_max_hop_interval", d.max_hop_interval));

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

    // Re-run the trial exactly as run_series recorded it: a fresh trace sink
    // per world (each setup retry builds a fresh world), the same frame
    // describer, the same retry policy.
    ExperimentConfig config = std::move(meta.config);
    std::shared_ptr<obs::JsonlTraceSink> trace;
    config.per_trial_sinks = [&trace](obs::EventBus& bus, std::uint64_t) {
        trace = std::make_shared<obs::JsonlTraceSink>(link::describe_frame);
        bus.attach(*trace);
    };
    (void)run_injection_experiment_with_retry(config, meta.seed, meta.tries);
    diff.loaded = true;

    const std::vector<std::string> no_lines;
    const std::vector<std::string>& fresh = trace ? trace->lines() : no_lines;
    diff.replayed_events = fresh.size();

    const std::size_t common = std::min(diff.recorded_events, fresh.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (lines[i + 1] != fresh[i]) {
            diff.first_divergence = i;
            diff.recorded_line = lines[i + 1];
            diff.replayed_line = fresh[i];
            return diff;
        }
    }
    if (diff.recorded_events != diff.replayed_events) {
        diff.first_divergence = common;
        if (common < diff.recorded_events) diff.recorded_line = lines[common + 1];
        if (common < diff.replayed_events) diff.replayed_line = fresh[common];
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

/// Parses one element of a series record's "trials" array back into a
/// RunResult.
RunResult run_result_from_json(const json::Value& trial) {
    RunResult r;
    r.seed = trial.u64("seed");
    r.success = trial.boolean_at("success");
    r.attempts = static_cast<int>(trial.i64("attempts"));
    r.established = trial.boolean_at("established");
    r.sniffed = trial.boolean_at("sniffed");
    r.session_lost = trial.boolean_at("session_lost");
    r.victim_disconnected = trial.boolean_at("victim_disconnected");
    r.heuristic_false_positives = static_cast<int>(trial.i64("heuristic_fp"));
    r.heuristic_false_negatives = static_cast<int>(trial.i64("heuristic_fn"));
    r.wall_ms = trial.number("wall_ms");
    return r;
}

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
    // Round-trip through the meta header parser: dump() keeps number tokens
    // verbatim, so the reconstructed config is bit-identical to the one the
    // recorder serialized.
    TraceMeta meta = parse_trace_meta(meta_obj->dump());
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
    runner.set_progress_label(replay.name + " (replay)");
    const std::vector<RunResult> fresh =
        runner.map(replay.trials, [&](int i) {
            return run_injection_experiment_with_retry(config, recorded[static_cast<std::size_t>(i)].seed,
                                                       tries);
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
