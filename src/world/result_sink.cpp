#include "world/result_sink.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"
#include "world/trial_runner.hpp"

namespace injectable::world {

namespace {

/// Guards series-record appends: run_series() may execute concurrently
/// (nested sweeps, tests), and each series must land as one intact line.
/// Process-wide on purpose — several sinks may share one output file.
std::mutex g_record_mutex;

void write_or_throw(const std::string& path, std::string_view content) {
    if (!ble::obs::write_text_file(path, content)) {
        throw std::runtime_error("cannot write " + path);
    }
}

ResultChannels channels_for(const SinkPaths& paths) {
    ResultChannels ch;
    ch.series_record = !paths.json_path.empty() || paths.metrics_print;
    ch.metrics = ch.series_record;  // a record carries the merged snapshot
    ch.traces = !paths.trace_dir.empty();
    ch.trace_all = paths.trace_all;
    ch.profile = paths.profile;
    ch.progress = paths.progress;
    ch.captures = !paths.pcap_dir.empty();
    return ch;
}

}  // namespace

PathsResultSink::PathsResultSink(SinkPaths paths)
    : paths_(std::move(paths)), channels_(channels_for(paths_)) {}

PathsResultSink::~PathsResultSink() = default;

void PathsResultSink::on_artifact(const TrialArtifact& artifact) {
    switch (artifact.kind) {
        case ArtifactKind::kEventTrace: {
            if (paths_.trace_dir.empty()) return;
            write_or_throw(paths_.trace_dir + "/" + artifact.stem + ".jsonl", artifact.content);
            return;
        }
        case ArtifactKind::kPcapCapture: {
            if (paths_.pcap_dir.empty()) return;
            write_or_throw(paths_.pcap_dir + "/" + artifact.stem + ".pcap", artifact.content);
            return;
        }
    }
}

void PathsResultSink::on_series_record(const ExperimentConfig& config, const SeriesSlice&,
                                       const std::vector<RunResult>& results,
                                       const ble::obs::MetricsSnapshot* metrics) {
    if (paths_.metrics_print && metrics != nullptr) {
        ble::obs::print_metrics_summary(*metrics, config.name);
    }
    if (paths_.json_path.empty()) return;
    std::string line = to_json(config, results, metrics);
    line.push_back('\n');
    const std::lock_guard lock(g_record_mutex);
    FILE* f = std::fopen(paths_.json_path.c_str(), "a");
    bool ok = f != nullptr && std::fwrite(line.data(), 1, line.size(), f) == line.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) throw std::runtime_error("cannot write " + paths_.json_path);
}

void PathsResultSink::on_progress(const std::string& label, int done, int total) {
    ProgressMeter* meter = nullptr;
    {
        const std::lock_guard lock(progress_mutex_);
        auto& slot = meters_[label];
        if (!slot) slot = std::make_unique<ProgressMeter>(label, total, /*enabled=*/true);
        meter = slot.get();
    }
    meter->report(done);
}

SinkPaths sink_paths_from_env() {
    SinkPaths paths;
    // The classic observability surface (DESIGN.md §7): every variable is an
    // output *destination or toggle*, never a simulation input, so reading
    // them here — and only here — keeps trials pure in (config, seed).
    if (const char* env = std::getenv("INJECTABLE_JSON")) paths.json_path = env;
    if (const char* env = std::getenv("INJECTABLE_TRACE_DIR")) paths.trace_dir = env;
    paths.trace_all = std::getenv("INJECTABLE_TRACE_ALL") != nullptr;
    if (const char* env = std::getenv("INJECTABLE_PCAP_DIR")) paths.pcap_dir = env;
    paths.metrics_print = std::getenv("INJECTABLE_METRICS") != nullptr;
    paths.profile = std::getenv("INJECTABLE_PROF") != nullptr;
    paths.progress = env_progress_enabled();
    return paths;
}

int env_runs_override(int runs) {
    if (const char* env = std::getenv("INJECTABLE_RUNS")) {
        const int parsed = std::atoi(env);
        if (parsed > 0) return parsed;
    }
    return runs;
}

bool env_progress_enabled() { return std::getenv("INJECTABLE_PROGRESS") != nullptr; }

}  // namespace injectable::world
