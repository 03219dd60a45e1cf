// campaign_report: one self-contained report for a whole campaign.
//
// A campaign is everything one CI run (or one operator session) produced:
// INJECTABLE_JSON series records — each line an experiment config, its
// per-trial outcomes and the merged MetricsSnapshot — plus, optionally, the
// per-trial JSONL traces from INJECTABLE_TRACE_DIR.  This library folds all
// of it into a single markdown document:
//
//   * per-series outcome tables (success rate, attempt quartiles),
//   * aggregate counters (the prof.span.* work counters of INJECTABLE_PROF=1
//     included) and log2-histogram renderings,
//   * a recorded-vs-expected event-count drift check: the sum of non-meta
//     lines across a series' traces must equal its `events_total` counter.
//
// Everything in the report is derived from deterministic fields only
// (wall_ms never appears), so two runs of the same campaign produce
// byte-identical reports — which is what lets CI gate on `campaign_report
// --check` and tests pin golden output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "world/experiment.hpp"

namespace injectable::report {

/// One INJECTABLE_JSON line: a series of trials over one config, decoded
/// through the recorder's own types (wall_ms is decoded but never rendered:
/// it would break report reproducibility).
struct SeriesRecord {
    std::string name;
    std::uint64_t base_seed = 0;
    int jobs = 0;
    std::string hop_interval;  ///< raw JSON number token (exact round-trip)
    std::vector<world::RunResult> trials;
    ble::obs::MetricsSnapshot metrics;
};

struct CampaignData {
    std::vector<SeriesRecord> series;
    std::vector<std::string> errors;  ///< unreadable files / unparsable lines
};

/// Reads and parses every INJECTABLE_JSON file.  Parse failures — including
/// a histogram bucket index outside 0..64 — land in `errors`; parsable lines
/// are kept regardless.
[[nodiscard]] CampaignData load_campaign(const std::vector<std::string>& json_paths);

/// Per-series recorded-vs-expected event counts.  `expected_events` is the
/// series' events_total counter; `trace_events` sums the non-meta lines of
/// every trace found under the traces directory.  Only a complete series
/// (every trial's trace present) can assert drift — partial trace sets (the
/// default INJECTABLE_TRACE_DIR mode keeps failures only) are reported but
/// not gated on.
struct DriftRow {
    std::string series;
    int trials = 0;
    int traces_found = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t expected_events = 0;

    [[nodiscard]] bool complete() const noexcept { return traces_found == trials; }
    [[nodiscard]] std::int64_t drift() const noexcept {
        return static_cast<std::int64_t>(trace_events) -
               static_cast<std::int64_t>(expected_events);
    }
};

[[nodiscard]] std::vector<DriftRow> compute_drift(const CampaignData& campaign,
                                                  const std::string& traces_dir);

/// The full report as GitHub-flavored markdown.  `have_traces` toggles the
/// drift section (rows only exist when a traces dir was given).
[[nodiscard]] std::string render_markdown(const CampaignData& campaign,
                                          const std::vector<DriftRow>& drift,
                                          bool have_traces);

struct CheckResult {
    bool ok = true;
    std::vector<std::string> problems;
};

/// The `--check` gate: fails on unparsable input, an empty campaign, or
/// nonzero drift in any complete series.
[[nodiscard]] CheckResult check_campaign(const CampaignData& campaign,
                                         const std::vector<DriftRow>& drift);

/// `--diff A B`: per-series outcome deltas between two campaigns — success
/// rates and attempt percentiles (p25/p50/p75), series matched by
/// name + hop interval + base seed; unmatched series are listed.  Markdown.
[[nodiscard]] std::string render_diff(const CampaignData& a, const CampaignData& b);

}  // namespace injectable::report
