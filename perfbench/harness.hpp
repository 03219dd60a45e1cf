// Shared pieces of the end-to-end benchmark: the workload table, the trial
// stream a seed selects, outcome digests, and the in-memory ResultSink.
//
// Every workload is a closed loop with one client: trials run back to back
// through world::run_series with ExperimentConfig::jobs pinned to 1, so the
// numbers measure the program and not the host's scheduler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "world/experiment.hpp"

namespace perfbench {

using injectable::world::ExperimentConfig;
using injectable::world::ResultChannels;
using injectable::world::RunResult;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t monotonic_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// FNV-1a over a canonical little-endian encoding.
class Digest {
public:
    void bytes(const void* data, std::size_t size) noexcept {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) noexcept {
        unsigned char le[8];
        for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(le, sizeof(le));
    }
    void str(std::string_view s) noexcept {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    /// The deterministic RunResult fields (wall_ms excluded).
    void result(const RunResult& r) noexcept;
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Keeps nothing: counts and hashes what a series run emits.  A fresh sink
/// per series; trials run on the calling thread (jobs = 1), so no locking.
class CountingSink final : public injectable::world::ResultSink {
public:
    explicit CountingSink(ResultChannels channels) : channels_(channels) {}

    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }
    void on_artifact(const injectable::world::TrialArtifact& artifact) override;
    /// Renders the series record exactly as INJECTABLE_JSON would, with the
    /// host-time wall_ms fields zeroed so the bytes are deterministic.
    void on_series_record(const ExperimentConfig& config,
                          const injectable::world::SeriesSlice& slice,
                          const std::vector<RunResult>& results,
                          const ble::obs::MetricsSnapshot* metrics) override;
    void on_progress(const std::string&, int, int) override {}

    std::uint64_t artifact_bytes = 0;
    Digest artifacts;

private:
    ResultChannels channels_;
};

struct Workload {
    std::string name;
    /// Configuration templates; series k of a run uses configs[k % size].
    std::vector<ExperimentConfig> configs;
    int runs_per_series = 25;
    /// Passes of the timed loop over the same trials (each series and trial
    /// keeps its fastest execution).  More passes resist load from other
    /// tenants of the host; fewer keep more distinct trials in a run.
    int passes = 4;
    /// Fixed per workload so trial_ms_tail compares across commits; chosen
    /// as the highest percentile with >= 10 samples beyond it in one run.
    double tail_percentile = 99.0;
    /// Result channels on: the metrics/traces/captures artifact path.
    bool observed = false;
    /// Series in the traced run's fixed trial set.
    int trace_series = 6;
    /// Outcome check: the canonical paper seeds (one series of
    /// runs_per_series per config) and the digest of their results
    /// (+ artifacts).
    std::vector<std::uint64_t> golden_seeds;
    std::uint64_t golden_digest = 0;
};

[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Channels of a run: wall clock always (RunResult::wall_ms is the per-trial
/// timing), the artifact channels for observed workloads, and metrics +
/// profile counts for the traced run.
[[nodiscard]] ResultChannels channels_for(const Workload& w, bool traced);

/// Series k of the trial stream `seed` selects: config k % C with its own
/// block of trial seeds.  The same (seed, k) always gives the same trials.
[[nodiscard]] ExperimentConfig series_config(const Workload& w, std::uint64_t seed,
                                             std::uint64_t k);

/// One untimed trial per config: the first golden trial, so set-up does
/// the same work whatever the run's seed.
[[nodiscard]] std::vector<ExperimentConfig> warmup_configs(const Workload& w);

struct SeriesOutcome {
    std::vector<RunResult> results;
    std::uint64_t artifact_bytes = 0;
    std::uint64_t artifact_digest = 0;
};

/// Runs one series through a fresh CountingSink with the given channels.
[[nodiscard]] SeriesOutcome run_counted(const ExperimentConfig& config,
                                        const ResultChannels& channels);

/// Digest of the workload's golden trials, run with the measured channels.
[[nodiscard]] std::uint64_t golden_digest(const Workload& w);

/// Calibration rung: host ns per Rng::next_u64 (median of several loops),
/// so rows from different machines can be normalised.
[[nodiscard]] double calibrate_rng_ns();

/// Traced run (per-layer metrics); prints its report and result line.  Its
/// length is fixed by Workload::trace_series.
int run_traced(const Workload& w, std::uint64_t seed, const std::string& spans_out);

/// Final machine-readable line of the binary: "PERFBENCH_RESULT <json>".
void print_result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<std::pair<std::string, double>>& metrics,
                       const std::string& extra_json);

}  // namespace perfbench
