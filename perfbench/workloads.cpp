// The four workloads, the seed -> trial-stream mapping, and the outcome
// digests.  README.md explains why each workload exists and which layers it
// loads.
#include <cstdio>

#include "common/rng.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using injectable::world::WorldSpec;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Trial seeds of a run live in one 2^32 block picked by the run's seed:
/// series k takes [k * runs, (k + 1) * runs) of it.
std::uint64_t stream_base(std::uint64_t seed) noexcept {
    return splitmix64(seed) & ~std::uint64_t{0xFFFFFFFF};
}

ExperimentConfig paper_config(const char* name) {
    ExperimentConfig config;
    config.name = name;
    config.jobs = 1;  // closed loop, one client
    config.world.hop_interval = 36;
    config.ll_payload_size = 12;  // 22-byte frame over the air
    return config;
}

/// Exp 3 geometry: bulb at the origin, phone 2 m away, attacker on the far
/// side at `distance_m`; `wall` adds Exp 3b's 6 dB wall between them.
ExperimentConfig distance_config(const char* name, double distance_m, bool wall) {
    ExperimentConfig config = paper_config(name);
    config.world.peripheral_pos = {0.0, 0.0};
    config.world.central_pos = {2.0, 0.0};
    config.world.attacker_pos = {-distance_m, 0.0};
    if (wall) config.world.walls.push_back(ble::sim::Wall{{-1.0, -50.0}, {-1.0, 50.0}, 6.0});
    return config;
}

std::vector<Workload> build_workloads() {
    std::vector<Workload> all;

    Workload exp1;
    exp1.name = "exp1_setup";
    for (std::uint16_t hop : {25, 50, 75, 100, 125, 150}) {
        ExperimentConfig config = paper_config("exp1");
        config.world.master_sca_ppm = 250.0;
        config.world.master_clock_ppm = 80.0;
        config.world.hop_interval = hop;
        exp1.configs.push_back(config);
        exp1.golden_seeds.push_back(1000u + hop);
    }
    exp1.passes = 8;  // ~0.1 ms trials: distinct trials are plentiful
    exp1.tail_percentile = 99.9;
    exp1.trace_series = 150;
    exp1.golden_digest = 0xb89cb21f917401ba;
    all.push_back(exp1);

    Workload far;
    far.name = "far_race";
    far.configs = {distance_config("exp3", 10.0, false), distance_config("exp3b", 6.0, true),
                   distance_config("exp3b", 8.0, true)};
    far.golden_seeds = {3100, 3560, 3580};
    far.tail_percentile = 99.0;
    far.trace_series = 30;
    far.golden_digest = 0x4b84a19c085a4986;
    all.push_back(far);

    Workload stadium;
    stadium.name = "stadium_crowd";
    ExperimentConfig crowd = paper_config("stadium");
    crowd.world = WorldSpec::stadium();
    stadium.configs = {crowd};
    stadium.runs_per_series = 4;
    stadium.golden_seeds = {9000};
    stadium.tail_percentile = 90.0;
    stadium.trace_series = 3;
    stadium.golden_digest = 0x76c5ee85bdb78e07;
    all.push_back(stadium);

    Workload observed;
    observed.name = "observed_eval";
    for (double d : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0}) {
        observed.configs.push_back(distance_config("exp3", d, false));
        observed.golden_seeds.push_back(3000 + static_cast<std::uint64_t>(d * 10));
    }
    observed.observed = true;
    observed.tail_percentile = 99.0;
    observed.trace_series = 30;
    observed.golden_digest = 0x1401ee8f5ce3b693;
    all.push_back(observed);
    return all;
}

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = build_workloads();
    return all;
}

}  // namespace

void Digest::result(const RunResult& r) noexcept {
    u64(r.seed);
    u64(static_cast<std::uint64_t>(r.attempts));
    u64(static_cast<std::uint64_t>(r.heuristic_false_positives));
    u64(static_cast<std::uint64_t>(r.heuristic_false_negatives));
    const unsigned flags = (r.success ? 1u : 0u) | (r.sniffed ? 2u : 0u) |
                           (r.established ? 4u : 0u) | (r.session_lost ? 8u : 0u) |
                           (r.victim_disconnected ? 16u : 0u);
    u64(flags);
}

void CountingSink::on_artifact(const injectable::world::TrialArtifact& artifact) {
    artifact_bytes += artifact.content.size();
    artifacts.u64(static_cast<std::uint64_t>(artifact.kind));
    artifacts.str(artifact.stem);
    artifacts.str(artifact.content);
}

void CountingSink::on_series_record(const ExperimentConfig& config,
                                    const injectable::world::SeriesSlice&,
                                    const std::vector<RunResult>& results,
                                    const ble::obs::MetricsSnapshot* metrics) {
    std::vector<RunResult> timeless = results;
    for (RunResult& r : timeless) r.wall_ms = 0.0;
    const std::string line = injectable::world::to_json(config, timeless, metrics);
    artifact_bytes += line.size() + 1;  // one JSONL line
    artifacts.str(line);
}

const Workload* find_workload(std::string_view name) {
    for (const Workload& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

std::vector<std::string> workload_names() {
    std::vector<std::string> names;
    for (const Workload& w : workloads()) names.push_back(w.name);
    return names;
}

ResultChannels channels_for(const Workload& w, bool traced) {
    ResultChannels ch;  // everything off but the wall clock
    if (w.observed) {
        ch.series_record = true;
        ch.metrics = true;
        ch.traces = true;
        ch.trace_all = true;
        ch.captures = true;
    }
    if (traced) {
        ch.metrics = true;
        ch.profile = true;
    }
    return ch;
}

ExperimentConfig series_config(const Workload& w, std::uint64_t seed, std::uint64_t k) {
    ExperimentConfig config = w.configs[k % w.configs.size()];
    config.runs = w.runs_per_series;
    config.base_seed = stream_base(seed) + k * static_cast<std::uint64_t>(w.runs_per_series);
    return config;
}

std::vector<ExperimentConfig> warmup_configs(const Workload& w) {
    std::vector<ExperimentConfig> out;
    for (std::size_t c = 0; c < w.configs.size(); ++c) {
        ExperimentConfig config = w.configs[c];
        config.runs = 1;
        config.base_seed = w.golden_seeds[c];
        out.push_back(config);
    }
    return out;
}

SeriesOutcome run_counted(const ExperimentConfig& config, const ResultChannels& channels) {
    CountingSink sink(channels);
    SeriesOutcome out;
    out.results = injectable::world::run_series(config, sink);
    out.artifact_bytes = sink.artifact_bytes;
    out.artifact_digest = sink.artifacts.value();
    return out;
}

std::uint64_t golden_digest(const Workload& w) {
    Digest digest;
    const ResultChannels channels = channels_for(w, false);
    for (std::size_t c = 0; c < w.configs.size(); ++c) {
        ExperimentConfig config = w.configs[c];
        config.runs = w.runs_per_series;
        config.base_seed = w.golden_seeds[c];
        const SeriesOutcome outcome = run_counted(config, channels);
        for (const RunResult& r : outcome.results) digest.result(r);
        digest.u64(outcome.artifact_digest);
    }
    return digest.value();
}

double calibrate_rng_ns() {
    constexpr int kCalls = 1 << 22;
    ble::Rng rng(0x5eed);
    std::uint64_t acc = 0;
    std::vector<double> reps;
    for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) acc ^= rng.next_u64();
        reps.push_back(seconds_since(t0) * 1e9 / kCalls);
    }
    volatile std::uint64_t keep = acc;
    (void)keep;
    return median(reps);
}

void print_result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<std::pair<std::string, double>>& metrics,
                       const std::string& extra_json) {
    std::string line = "PERFBENCH_RESULT {\"correct\":";
    line += correct ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(attempted);
    line += ",\"failed\":" + std::to_string(failed);
    line += ",\"metrics\":{";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].second);
        line += (i ? ",\"" : "\"") + metrics[i].first + "\":" + value;
    }
    line += "}";
    if (!extra_json.empty()) line += "," + extra_json;
    line += "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
