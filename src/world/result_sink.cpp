#include "world/result_sink.hpp"

#include <cstdio>
#include <cstdlib>

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

ResultChannels channels_for(const SinkPaths& paths) {
    ResultChannels ch;
    ch.series_record = !paths.json_path.empty() || paths.metrics_print;
    ch.metrics = !paths.json_path.empty() || paths.metrics_print || paths.metrics;
    ch.traces = !paths.trace_dir.empty();
    ch.trace_all = paths.trace_all;
    ch.timelines = !paths.chrome_dir.empty();
    ch.profile = paths.profile;
    ch.progress = paths.progress;
    ch.captures = !paths.pcap_dir.empty();
    ch.wall_clock = paths.wall_clock;
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
            const std::string path = paths_.trace_dir + "/" + artifact.stem + ".jsonl" +
                                     (paths_.trace_gzip ? ".gz" : "");
            ble::obs::write_text_file(path, artifact.content, paths_.trace_gzip);
            return;
        }
        case ArtifactKind::kChromeTimeline: {
            if (paths_.chrome_dir.empty()) return;
            ble::obs::write_text_file(paths_.chrome_dir + "/" + artifact.stem + ".trace.json",
                                      artifact.content);
            return;
        }
        case ArtifactKind::kPcapCapture: {
            if (paths_.pcap_dir.empty()) return;
            // Same gzip toggle as the JSONL traces: one INJECTABLE_TRACE_COMPRESS
            // knob compresses every per-trial artifact family.
            const std::string path = paths_.pcap_dir + "/" + artifact.stem + ".pcap" +
                                     (paths_.trace_gzip ? ".gz" : "");
            ble::obs::write_text_file(path, artifact.content, paths_.trace_gzip);
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
    if (FILE* f = std::fopen(paths_.json_path.c_str(), "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
    }
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
    paths.trace_gzip = std::getenv("INJECTABLE_TRACE_COMPRESS") != nullptr &&
                       ble::obs::trace_compression_available();
    if (const char* env = std::getenv("INJECTABLE_CHROME_TRACE_DIR")) paths.chrome_dir = env;
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
