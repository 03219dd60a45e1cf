// Trace replay: the determinism guarantee turned into an executable check.
//
// A trial is a pure function of (config, seed), and `run_series` records each
// trial's event stream as seed-keyed JSONL (DESIGN.md §7).  This module
// closes the loop: the first line of every recorded trace is a `meta` JSON
// object carrying the reconstructable ExperimentConfig (every field that can
// influence the simulation, doubles serialized with %.17g so they round-trip
// bit-exactly), and replay_trace_*() re-runs that (config, seed) through the
// world layer and structurally diffs the recorded event lines against the
// fresh ones.  Zero divergences means the trace is an honest recipe; any
// divergence names the first differing event — CI runs this over every trace
// artifact via tools/trace_replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "world/experiment.hpp"

namespace injectable::world {

/// Bumped when the meta line's schema changes incompatibly.
inline constexpr int kTraceMetaVersion = 1;

/// Serializes (config, seed, tries) as the one-line `{"e":"meta",...}` trace
/// header.  Captures every simulation-relevant field of ExperimentConfig /
/// WorldSpec / AttackParams; callbacks (observation-only) are not part of the
/// simulation and are skipped.
[[nodiscard]] std::string experiment_meta_json(const ExperimentConfig& config,
                                               std::uint64_t seed, int tries);

/// experiment_meta_json() cut at its seed: the line is `prefix`, the seed's
/// decimal digits, then `suffix`.  A series renders its config once here,
/// and each trial writes only its seed.
struct MetaHeader {
    std::string prefix;
    std::string suffix;

    /// Writes the line for `seed` into `out`, reusing its storage.
    void write(std::string& out, std::uint64_t seed) const;
};
[[nodiscard]] MetaHeader experiment_meta_header(const ExperimentConfig& config, int tries);

struct TraceMeta {
    bool valid = false;
    std::string error;
    std::uint64_t seed = 0;
    int tries = kSetupRetries;
    ExperimentConfig config;
};

/// Parses a meta header line back into a runnable config: one run, with
/// `jobs` left at 0 so run_series takes its worker count from BENCH_JOBS.
[[nodiscard]] TraceMeta parse_trace_meta(const std::string& line);
/// The same, from an already parsed meta object (a series record's "meta").
[[nodiscard]] TraceMeta parse_trace_meta(const ble::json::Value& meta);

struct ReplayDiff {
    bool loaded = false;  ///< meta parsed and the replay ran
    std::string error;    ///< set when !loaded
    std::uint64_t seed = 0;
    std::size_t recorded_events = 0;
    std::size_t replayed_events = 0;
    bool identical = false;
    /// 0-based index of the first divergent event (valid iff loaded and not
    /// identical).  An empty recorded_line/replayed_line means that stream
    /// ended before the other.
    std::size_t first_divergence = 0;
    std::string recorded_line;
    std::string replayed_line;
};

/// Replays a trace given as raw lines (lines[0] must be the meta header) and
/// diffs recorded vs. fresh event streams.
[[nodiscard]] ReplayDiff replay_trace_lines(const std::vector<std::string>& lines);

/// Reads `path` and replays it.
[[nodiscard]] ReplayDiff replay_trace_file(const std::string& path);

// ---------------------------------------------------------------------------
// Replay straight from INJECTABLE_JSON records: every series line embeds the
// same self-describing "meta" object that heads each trace file, plus the
// per-trial (seed, outcome) list — enough to re-run the whole series and diff
// the deterministic outcome fields without any stored trace.

/// One replayed trial whose deterministic outcome diverged from the record.
struct SeriesTrialDiff {
    std::uint64_t seed = 0;
    std::string field;  ///< first differing RunResult field
    RunResult recorded;
    RunResult replayed;
};

struct SeriesReplay {
    bool loaded = false;  ///< line parsed and the replay ran
    std::string error;    ///< set when !loaded
    std::string name;     ///< experiment name from the record
    int trials = 0;
    int mismatches = 0;
    std::vector<SeriesTrialDiff> diffs;  ///< one entry per mismatched trial
};

/// Re-runs every (config, seed) of one INJECTABLE_JSON line and diffs the
/// recorded vs fresh RunResult fields (wall_ms excluded, as always).  Trials
/// fan out on a TrialRunner; `jobs` 0 resolves via BENCH_JOBS.
[[nodiscard]] SeriesReplay replay_series_line(const std::string& line, int jobs = 0);

}  // namespace injectable::world
