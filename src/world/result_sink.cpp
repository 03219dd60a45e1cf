#include "world/result_sink.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"

namespace injectable::world {

namespace {

/// Minimum gap between heartbeat lines: keeps a fast campaign from flooding
/// stderr while still feeling live.
constexpr std::uint64_t kProgressIntervalNs = 200'000'000;  // 200 ms

/// The heartbeat's only clock read.  Its output is stderr for humans, never
/// recorded, parsed or compared.
std::uint64_t host_now_ns() {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

bool env_progress_enabled() { return std::getenv("INJECTABLE_PROGRESS") != nullptr; }

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

/// One series' stderr heartbeat: throttled "done/total (pct) elapsed eta"
/// lines and one closing line.  It writes stderr only, so trial results,
/// metrics and artifacts are identical with or without it.
class PathsResultSink::ProgressMeter {
public:
    ProgressMeter(std::string label, int total)
        : label_(std::move(label)), total_(total), start_ns_(host_now_ns()) {}

    ProgressMeter(const ProgressMeter&) = delete;
    ProgressMeter& operator=(const ProgressMeter&) = delete;

    // Close with a final line wherever an aborted campaign stopped, so the
    // last heartbeat never understates progress (a completed campaign already
    // printed its closing line from report()).
    ~ProgressMeter() {
        if (!closed_.load(std::memory_order_relaxed)) {
            print_line(done_.load(std::memory_order_relaxed), true);
        }
    }

    /// Thread-safe; `done` trials have finished (monotone: out-of-order
    /// calls keep the maximum).
    void report(int done) {
        int prev = done_.load(std::memory_order_relaxed);
        while (prev < done &&
               !done_.compare_exchange_weak(prev, done, std::memory_order_relaxed)) {
        }
        if (done >= total_) {
            // One closing line, printed by whoever reaches the total first.
            if (!closed_.exchange(true, std::memory_order_relaxed)) print_line(done, true);
            return;
        }
        const std::uint64_t now = host_now_ns();
        std::uint64_t last = last_print_ns_.load(std::memory_order_relaxed);
        if (now - last < kProgressIntervalNs) return;
        // One printer per interval: whoever wins the CAS writes the line.
        if (!last_print_ns_.compare_exchange_strong(last, now, std::memory_order_relaxed)) {
            return;
        }
        print_line(done, false);
    }

private:
    void print_line(int done, bool final_line) const {
        const double elapsed_s = static_cast<double>(host_now_ns() - start_ns_) / 1e9;
        const double pct = 100.0 * static_cast<double>(done) / static_cast<double>(total_);
        char eta[32];
        if (done > 0 && done < total_) {
            const double eta_s = elapsed_s * static_cast<double>(total_ - done) /
                                 static_cast<double>(done);
            std::snprintf(eta, sizeof(eta), " eta %.1fs", eta_s);
        } else {
            eta[0] = '\0';
        }
        // Single fprintf call: concurrent heartbeats from other meters stay
        // line-atomic on POSIX stderr.
        std::fprintf(stderr, "[injectable] %s: %d/%d trials (%.0f%%) elapsed %.1fs%s%s\n",
                     label_.c_str(), done, total_, pct, elapsed_s, eta,
                     final_line ? " done" : "");
    }

    std::string label_;
    int total_;
    std::uint64_t start_ns_;
    std::atomic<int> done_{0};
    std::atomic<bool> closed_{false};
    std::atomic<std::uint64_t> last_print_ns_{0};
};

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
        if (!slot) slot = std::make_unique<ProgressMeter>(label, total);
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

}  // namespace injectable::world
