// ResultSink: every experiment output channel as one explicit interface.
//
// run_series() used to push results out through ambient globals — the
// INJECTABLE_* environment variables named files and toggles, read deep
// inside the harness.  Callers that want the results in memory (tests,
// pcap_export, the end-to-end benchmark) could not reach them that way.
//
// So the channels are first-class:
//
//  * ResultChannels — which outputs a run should produce at all (production
//    gating lives with the owner, not with getenv probes);
//  * TrialArtifact  — one per-trial by-product (JSONL event trace, Chrome
//    occupancy timeline, PCAP capture) as bytes + identity;
//  * ResultSink     — the consumer interface: artifacts, the per-series
//    record (trial results + merged metrics), progress heartbeats.
//
// The legacy environment behavior is exactly one concrete sink wired at the
// edge: sink_paths_from_env() + PathsResultSink.  Nothing else in src/ reads
// INJECTABLE_* (enforced by injectable_lint rule E1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ble::obs {
struct MetricsSnapshot;
}

namespace injectable::world {

struct ExperimentConfig;
struct RunResult;
class ProgressMeter;

/// Which output channels a series run produces.  Channels gate *production*
/// (no trace sink attached when traces is off); what a produced value means
/// (file path, in-memory capture, digest) is the sink's business.
struct ResultChannels {
    bool series_record = false;  ///< per-series record (trials + metrics)
    bool metrics = false;        ///< collect + merge per-trial MetricsSnapshots
    bool traces = false;         ///< per-trial JSONL event traces
    bool trace_all = false;      ///< keep successful-trial traces too
    bool timelines = false;      ///< Chrome occupancy timelines
    bool profile = false;        ///< work counters (src/obs/work_counters.hpp) in
                                 ///< the metrics snapshot; needs metrics
    bool progress = false;       ///< per-trial heartbeats via on_progress()
    bool captures = false;       ///< per-trial omniscient PCAP link captures
    /// Record host wall-clock cost in RunResult::wall_ms.  Off makes every
    /// record a pure function of (config, seed).
    bool wall_clock = true;
};

enum class ArtifactKind : std::uint8_t {
    kEventTrace = 0,      ///< replayable JSONL (meta header + event lines)
    kChromeTimeline = 1,  ///< channel-occupancy Chrome trace-event JSON
    // perfbench hashes these values, so they are never renumbered (2 is
    // retired).
    kPcapCapture = 3,     ///< omniscient link-layer PCAP (DESIGN.md §14)
};

/// One per-trial by-product, carried as bytes so a sink can write, hash or keep it.
struct TrialArtifact {
    ArtifactKind kind = ArtifactKind::kEventTrace;
    std::string stem;         ///< "<sanitized-name>-seed<seed>" file stem
    std::uint64_t seed = 0;   ///< the trial's reproducing seed
    bool success = false;     ///< trial outcome (write_all filtering happened
                              ///< upstream; kept for sink-side labeling)
    std::string content;      ///< uncompressed bytes (sink may gzip on write)
};

/// Half-open trial range of a series: trials [first, first+count) of
/// config.runs.  count < 0 means "through the last trial".  run_series()
/// always reports the whole series, {0, config.runs}.
struct SeriesSlice {
    int first = 0;
    int count = -1;
};

/// Consumer of everything a series run emits.  Implementations must be
/// thread-safe for on_artifact()/on_progress(): trials complete concurrently
/// on TrialRunner workers.  on_series_record() is called once, at the end,
/// from the calling thread.
class ResultSink {
public:
    virtual ~ResultSink() = default;

    [[nodiscard]] virtual const ResultChannels& channels() const noexcept = 0;

    /// One finished trial's by-product (called only for enabled channels, and
    /// for event traces only when the trace survives the trace_all filter).
    virtual void on_artifact(const TrialArtifact& artifact) = 0;

    /// The series' results (in trial-index order) and, when the
    /// metrics channel is on, the merged snapshot (nullptr otherwise).
    virtual void on_series_record(const ExperimentConfig& config, const SeriesSlice& slice,
                                  const std::vector<RunResult>& results,
                                  const ble::obs::MetricsSnapshot* metrics) = 0;

    /// Heartbeat: `done` of `total` trials finished for the series `label`.
    virtual void on_progress(const std::string& label, int done, int total) = 0;
};

/// A sink that drops everything (all channels off) — run_series on this is a
/// pure compute of the result vector.
class NullResultSink final : public ResultSink {
public:
    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }
    void on_artifact(const TrialArtifact&) override {}
    void on_series_record(const ExperimentConfig&, const SeriesSlice&,
                          const std::vector<RunResult>&,
                          const ble::obs::MetricsSnapshot*) override {}
    void on_progress(const std::string&, int, int) override {}

private:
    // Every channel off, wall clock included: results are a pure function
    // of (config, seed).
    ResultChannels channels_{false, false, false, false, false,
                             false, false, /*captures=*/false, /*wall_clock=*/false};
};

/// Filesystem/console wiring for the classic single-process flow: series
/// records appended to a JSONL file, artifacts written under their
/// directories, metrics summaries printed, progress heartbeats on stderr.
struct SinkPaths {
    std::string json_path;   ///< append one series record line per series
    std::string trace_dir;   ///< seed-keyed replayable JSONL traces
    bool trace_all = false;  ///< keep successful-trial traces too
    bool trace_gzip = false; ///< gzip traces on write (when zlib is in)
    std::string chrome_dir;  ///< Chrome occupancy timelines
    std::string pcap_dir;    ///< seed-keyed omniscient .pcap captures
    bool metrics_print = false;  ///< print the merged metrics summary
    bool metrics = false;        ///< collect metrics even without json/print
    bool profile = false;        ///< work counters in the metrics snapshot
    bool progress = false;       ///< ETA heartbeats on stderr
    bool wall_clock = true;      ///< record RunResult::wall_ms
};

class PathsResultSink final : public ResultSink {
public:
    explicit PathsResultSink(SinkPaths paths);
    ~PathsResultSink() override;

    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }
    [[nodiscard]] const SinkPaths& paths() const noexcept { return paths_; }

    void on_artifact(const TrialArtifact& artifact) override;
    void on_series_record(const ExperimentConfig& config, const SeriesSlice& slice,
                          const std::vector<RunResult>& results,
                          const ble::obs::MetricsSnapshot* metrics) override;
    void on_progress(const std::string& label, int done, int total) override;

private:
    SinkPaths paths_;
    ResultChannels channels_;
    std::mutex progress_mutex_;  // guards: meters_
    std::map<std::string, std::unique_ptr<ProgressMeter>> meters_;
};

// ---------------------------------------------------------------------------
// Edge wiring — the ONLY place in src/ that reads INJECTABLE_* environment
// variables (injectable_lint rule E1 enforces the boundary).  Tools and mains
// call these to build the default sink; everything below them takes explicit
// configuration.

/// Reads the classic INJECTABLE_JSON / _TRACE_DIR / _TRACE_ALL /
/// _TRACE_COMPRESS / _CHROME_TRACE_DIR / _PCAP_DIR / _METRICS / _PROF /
/// _PROGRESS variables into a SinkPaths.
[[nodiscard]] SinkPaths sink_paths_from_env();

/// INJECTABLE_RUNS override for the per-series run count (`runs` unchanged
/// when the variable is unset or not a positive integer).
[[nodiscard]] int env_runs_override(int runs);

/// INJECTABLE_PROGRESS heartbeat toggle.
[[nodiscard]] bool env_progress_enabled();

}  // namespace injectable::world
