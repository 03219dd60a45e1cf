// Shared harness for the paper's sensitivity experiments (§VII, Fig. 9).
//
// One "run" mirrors one of the paper's measurements: the legitimate Central
// establishes a fresh connection with the Peripheral, the attacker sniffs the
// CONNECT_REQ, synchronises, and injects until the Eq. 7 heuristic reports
// success; we record the number of attempts.  25 runs per configuration (as
// in the paper), each with a fresh seed (fresh clock drifts and fading
// draws).
//
// The testbed itself is a world::WorldSpec — the paper's Fig. 8 baseline by
// default (fading enabled, chatty master) — and every trial is a pure
// function of (config, seed), so run_series() fans the trials out on a
// TrialRunner: results are stored by trial index and are bit-identical to a
// serial run regardless of BENCH_JOBS.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "world/result_sink.hpp"
#include "world/trial_runner.hpp"
#include "world/world.hpp"

namespace injectable::world {

/// Setup retries per trial (a missed CONNECT_REQ / failed pairing re-runs
/// the connection, as the paper's operator would).  Recorded in every trace
/// meta header so a replay applies the identical retry policy.
inline constexpr int kSetupRetries = 3;

struct ExperimentConfig {
    std::string name = "experiment";
    int runs = 25;            // connections per configuration (paper: 25)
    int max_attempts = 1500;  // per-run attempt budget
    std::uint64_t base_seed = 1000;
    /// Worker threads for run_series(); 0 resolves via BENCH_JOBS / hardware
    /// concurrency (results are index-ordered, identical for any value).
    int jobs = 0;

    /// The testbed (geometry, clocks, RF, traffic, counter-measures).
    WorldSpec world{};

    // Injected frame: raw LL payload of this size (paper §VII-B varies it).
    // The default 12-byte payload gives the paper's 22-byte / 176 µs frame.
    std::size_t ll_payload_size = 12;
    /// When set, inject this exact LL payload instead (e.g. a real ATT write).
    std::optional<ble::Bytes> payload_override;
    ble::link::Llid llid = ble::link::Llid::kDataStart;

    /// Per-attempt tap for outcome-analysis benches.  run_series() executes
    /// trials on worker threads, so the hook may be invoked concurrently —
    /// accumulate into atomics (totals are order-independent, keeping the
    /// bench output deterministic).  Implemented as an obs::EventBus
    /// subscription over obs::InjectionAttempt events.
    std::function<void(const AttemptReport&)> on_attempt_hook;

    /// Called once per trial *world* (including each setup retry, which
    /// builds a fresh world) right after construction, before any event is
    /// emitted: attach per-trial sinks to the world's isolated bus here.
    /// Invoked concurrently from worker threads, but each call receives a
    /// bus no other thread touches.
    std::function<void(ble::obs::EventBus&, std::uint64_t seed)> per_trial_sinks;

    /// Receives the series' merged metrics snapshot at the end of
    /// run_series() (per-trial registries merged in trial-index order, so the
    /// snapshot is bit-identical for any BENCH_JOBS).  Setting this enables
    /// metrics collection even without INJECTABLE_JSON / INJECTABLE_METRICS.
    std::function<void(const ble::obs::MetricsSnapshot&)> on_series_metrics;
};

/// Structured per-trial record: the seed that reproduces the trial, the
/// attack outcome flags, and the host wall-clock cost.  Everything except
/// wall_ms is deterministic in (config, seed).
struct RunResult {
    std::uint64_t seed = 0;  ///< base seed of the trial (before setup retries)
    bool success = false;
    int attempts = 0;
    bool sniffed = false;
    bool established = false;
    bool session_lost = false;         ///< attacker lost sync with the target
    bool victim_disconnected = false;  ///< a victim dropped during the attack
    /// God-view: per-attempt ground truth (did the slave accept the frame),
    /// used to score the Eq. 7 heuristic itself.
    int heuristic_false_positives = 0;
    int heuristic_false_negatives = 0;
    /// Host wall clock consumed by the trial, including setup retries.
    /// NOT deterministic — excluded from comparisons.
    double wall_ms = 0.0;

    /// Compares the deterministic fields (wall_ms excluded).
    friend bool operator==(const RunResult& a, const RunResult& b) {
        return a.seed == b.seed && a.success == b.success && a.attempts == b.attempts &&
               a.sniffed == b.sniffed && a.established == b.established &&
               a.session_lost == b.session_lost &&
               a.victim_disconnected == b.victim_disconnected &&
               a.heuristic_false_positives == b.heuristic_false_positives &&
               a.heuristic_false_negatives == b.heuristic_false_negatives;
    }
};

struct Stats {
    int n = 0;
    int successes = 0;
    double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
};

/// Quartile summary of the attempts-before-success samples (successes only).
[[nodiscard]] Stats summarize(const std::vector<RunResult>& results);

/// Filesystem-safe form of an experiment name, as used in trace file stems
/// ("<name>-seed<seed>.jsonl[.gz]").  Shared with tools/campaign_report so
/// report and recorder agree on trace paths.
[[nodiscard]] std::string sanitize_experiment_name(const std::string& name);

/// Runs one full measurement (connection + sniff + inject).
[[nodiscard]] RunResult run_injection_experiment(const ExperimentConfig& config,
                                                 std::uint64_t seed);

/// Re-runs the setup phase (connection + sniff) on setup failures, as the
/// paper's operator would; attack outcomes are never retried.
[[nodiscard]] RunResult run_injection_experiment_with_retry(const ExperimentConfig& config,
                                                            std::uint64_t seed, int tries);

/// Runs the config.runs trials of one series through an explicit
/// ResultSink; trial i uses seed base_seed + i.  The sink's channels gate
/// what each trial produces (traces, timelines, metrics, work counters,
/// wall-clock timing); artifacts, the series record (always with
/// SeriesSlice{0, config.runs}) and progress heartbeats are delivered
/// through the sink.  Reads no environment variables.
[[nodiscard]] std::vector<RunResult> run_series(const ExperimentConfig& config,
                                                ResultSink& sink);

/// Legacy edge wrapper: resolves the classic INJECTABLE_* environment
/// variables into a PathsResultSink (INJECTABLE_RUNS overrides the run
/// count; see DESIGN.md §7 for the variable set) and runs the full series
/// through it.  Environment reads happen in result_sink.cpp only.
[[nodiscard]] std::vector<RunResult> run_series(const ExperimentConfig& config);

/// One JSON object per series: config identity plus per-trial records, plus
/// a "metrics" object when a merged snapshot is passed.
/// wall_ms fields are host timings and not deterministic.
[[nodiscard]] std::string to_json(const ExperimentConfig& config,
                                  const std::vector<RunResult>& results,
                                  const ble::obs::MetricsSnapshot* metrics = nullptr);

/// Prints one row of a paper-style results table.
void print_stats_row(const std::string& label, const Stats& stats);
void print_stats_header(const std::string& variable);

}  // namespace injectable::world
