#include "campaign_report/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/json.hpp"
#include "obs/sinks.hpp"

namespace injectable::report {

namespace {

namespace json = ble::json;

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

std::string pct_str(std::uint64_t part, std::uint64_t whole) {
    char buf[32];
    const double pct =
        whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
    std::snprintf(buf, sizeof(buf), "%.1f%%", pct);
    return buf;
}

std::string fixed1(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

/// ASCII bar scaled so the longest row gets `width` cells.
std::string bar(std::uint64_t value, std::uint64_t max_value, int width = 40) {
    if (max_value == 0) return {};
    const auto cells = static_cast<int>((value * static_cast<std::uint64_t>(width)) / max_value);
    return std::string(static_cast<std::size_t>(value > 0 && cells == 0 ? 1 : cells), '#');
}

/// Inclusive value range of a log2 bucket (index == bit_width).
std::string bucket_range(int b) {
    if (b <= 0) return "0";
    if (b == 1) return "1";
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (b >= 64) ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
    return u64_str(lo) + ".." + u64_str(hi);
}

bool parse_series_line(const std::string& line, SeriesRecord& out, std::string& error) {
    const json::ParseResult parsed = json::parse(line);
    if (!parsed.ok) {
        error = "bad JSON: " + parsed.error;
        return false;
    }
    const json::Value& root = parsed.value;
    if (root.kind != json::Value::Kind::kObject) {
        error = "series record is not an object";
        return false;
    }
    out.name = root.string_at("experiment", "?");
    out.base_seed = root.u64("base_seed", 0);
    out.jobs = static_cast<int>(root.i64("jobs", 0));
    if (const json::Value* hop = root.find("hop_interval")) out.hop_interval = hop->raw;
    const json::Value* trials = root.find("trials");
    if (trials == nullptr || trials->kind != json::Value::Kind::kArray) {
        error = "series record has no \"trials\" array";
        return false;
    }
    // The report renders what it can: a non-object trial entry is skipped.
    for (const json::Value& t : trials->array) {
        if (t.is_object()) out.trials.push_back(world::run_result_from_json(t));
    }
    if (const json::Value* metrics = root.find("metrics")) {
        std::optional<ble::obs::MetricsSnapshot> snapshot =
            ble::obs::MetricsSnapshot::from_json(*metrics, &error);
        if (!snapshot) return false;
        out.metrics = std::move(*snapshot);
    }
    return true;
}

std::uint64_t total_trials(const CampaignData& campaign) {
    std::uint64_t n = 0;
    for (const SeriesRecord& s : campaign.series) n += s.trials.size();
    return n;
}

std::uint64_t total_successes(const CampaignData& campaign) {
    std::uint64_t n = 0;
    for (const SeriesRecord& s : campaign.series) {
        for (const world::RunResult& t : s.trials) n += t.success ? 1 : 0;
    }
    return n;
}

/// Attempts percentile over a series (nearest-rank on the sorted list).
int attempts_percentile(std::vector<int> attempts, int pct) {
    if (attempts.empty()) return 0;
    std::sort(attempts.begin(), attempts.end());
    const std::size_t rank =
        (attempts.size() * static_cast<std::size_t>(pct) + 99) / 100;
    return attempts[rank == 0 ? 0 : rank - 1];
}

std::string render_histogram(const std::string& name, const ble::obs::HistogramSnapshot& hist) {
    std::string out = "### `" + name + "`\n\n";
    out += "samples " + u64_str(hist.count) + ", sum " + u64_str(hist.sum);
    if (hist.count > 0) {
        out += ", min " + u64_str(hist.min) + ", max " + u64_str(hist.max) + ", mean " +
               fixed1(hist.mean());
    }
    out += "\n\n```\n";
    const std::uint64_t max_count = *std::max_element(hist.buckets.begin(), hist.buckets.end());
    for (int b = 0; b < ble::obs::kHistogramBuckets; ++b) {
        const std::uint64_t count = hist.buckets[static_cast<std::size_t>(b)];
        if (count == 0) continue;
        char line[128];
        std::snprintf(line, sizeof(line), "%22s  %8" PRIu64 "  ", bucket_range(b).c_str(),
                      count);
        out += line;
        out += bar(count, max_count);
        out += "\n";
    }
    out += "```\n\n";
    return out;
}

/// Every series' histograms merged by name, in name order.
std::map<std::string, ble::obs::HistogramSnapshot> merged_histograms(
    const CampaignData& campaign) {
    std::map<std::string, ble::obs::HistogramSnapshot> hists;
    for (const SeriesRecord& s : campaign.series) {
        for (const auto& [name, h] : s.metrics.histograms) hists[name].merge(h);
    }
    return hists;
}

/// The report's markdown tables.
std::string series_table(const CampaignData& campaign) {
    std::string out =
        "| series | base seed | trials | jobs | hop interval | success | attempts p50 | "
        "p90 | max |\n|---|---|---|---|---|---|---|---|---|\n";
    for (const SeriesRecord& s : campaign.series) {
        std::vector<int> attempts;
        std::uint64_t wins = 0;
        for (const world::RunResult& t : s.trials) {
            attempts.push_back(t.attempts);
            wins += t.success ? 1 : 0;
        }
        int max_attempts = 0;
        for (const int a : attempts) max_attempts = std::max(max_attempts, a);
        out += "| " + s.name + " | " + u64_str(s.base_seed) + " | " +
               std::to_string(s.trials.size()) + " | " + std::to_string(s.jobs) + " | " +
               (s.hop_interval.empty() ? "-" : s.hop_interval) + " | " +
               pct_str(wins, s.trials.size()) + " | " +
               std::to_string(attempts_percentile(attempts, 50)) + " | " +
               std::to_string(attempts_percentile(attempts, 90)) + " | " +
               std::to_string(max_attempts) + " |\n";
    }
    return out;
}

std::string counters_table(const CampaignData& campaign) {
    std::map<std::string, std::uint64_t> totals;
    for (const SeriesRecord& s : campaign.series) {
        for (const auto& [name, value] : s.metrics.counters) totals[name] += value;
    }
    std::string out = "| counter | total |\n|---|---|\n";
    for (const auto& [name, value] : totals) {
        out += "| " + name + " | " + u64_str(value) + " |\n";
    }
    return out;
}

std::string drift_table(const std::vector<DriftRow>& drift) {
    std::string out =
        "| series | traces | trace events | events_total | drift |\n|---|---|---|---|---|\n";
    for (const DriftRow& row : drift) {
        out += "| " + row.series + " | " + std::to_string(row.traces_found) + "/" +
               std::to_string(row.trials) + " | " + u64_str(row.trace_events) + " | " +
               u64_str(row.expected_events) + " | " +
               (row.complete() ? std::to_string(row.drift())
                               : "n/a (incomplete trace set)") +
               " |\n";
    }
    return out;
}

}  // namespace

CampaignData load_campaign(const std::vector<std::string>& json_paths) {
    CampaignData campaign;
    for (const std::string& path : json_paths) {
        std::string error;
        const std::vector<std::string> lines = ble::obs::read_jsonl_file(path, &error);
        if (lines.empty()) {
            campaign.errors.push_back(path + ": " +
                                      (error.empty() ? "empty file" : error));
            continue;
        }
        for (std::size_t n = 0; n < lines.size(); ++n) {
            SeriesRecord series;
            std::string parse_error;
            if (parse_series_line(lines[n], series, parse_error)) {
                campaign.series.push_back(std::move(series));
            } else {
                campaign.errors.push_back(path + ":" + std::to_string(n + 1) + ": " +
                                          parse_error);
            }
        }
    }
    return campaign;
}

std::vector<DriftRow> compute_drift(const CampaignData& campaign,
                                    const std::string& traces_dir) {
    std::vector<DriftRow> rows;
    if (traces_dir.empty()) return rows;
    for (const SeriesRecord& series : campaign.series) {
        DriftRow row;
        row.series = series.name;
        row.trials = static_cast<int>(series.trials.size());
        const auto& counters = series.metrics.counters;
        const auto events_total = counters.find("events_total");
        row.expected_events = events_total == counters.end() ? 0 : events_total->second;
        const std::string stem_base =
            traces_dir + "/" + world::sanitize_experiment_name(series.name) + "-seed";
        for (const world::RunResult& trial : series.trials) {
            const std::string stem = stem_base + u64_str(trial.seed) + ".jsonl";
            std::string error;
            const std::vector<std::string> lines = ble::obs::read_jsonl_file(stem, &error);
            if (lines.empty()) continue;
            ++row.traces_found;
            for (const std::string& line : lines) {
                if (line.rfind("{\"e\":\"meta\"", 0) == 0) continue;
                ++row.trace_events;
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string render_markdown(const CampaignData& campaign, const std::vector<DriftRow>& drift,
                            bool have_traces) {
    std::string out = "# Campaign report\n\n";
    out += u64_str(campaign.series.size()) + " series, " + u64_str(total_trials(campaign)) +
           " trials, " + pct_str(total_successes(campaign), total_trials(campaign)) +
           " overall injection success.\n\n";
    if (!campaign.errors.empty()) {
        out += "**Input problems:**\n\n";
        for (const std::string& e : campaign.errors) out += "- " + e + "\n";
        out += "\n";
    }

    out += "## Series\n\n" + series_table(campaign) + "\n";
    out += "## Outcome counters\n\n" + counters_table(campaign) + "\n";

    // Merged histograms across every series, deterministic name order.
    const auto hists = merged_histograms(campaign);
    if (!hists.empty()) {
        out += "## Histograms (log2 buckets, merged across series)\n\n";
        for (const auto& [name, h] : hists) {
            if (h.count == 0) continue;
            out += render_histogram(name, h);
        }
    }

    if (have_traces) {
        out += "## Event-count drift\n\nNon-meta lines summed across each series' traces "
               "vs. its `events_total` counter; only a complete trace set can assert "
               "drift.\n\n" +
               drift_table(drift) + "\n";
    }
    return out;
}

CheckResult check_campaign(const CampaignData& campaign, const std::vector<DriftRow>& drift) {
    CheckResult result;
    for (const std::string& e : campaign.errors) {
        result.problems.push_back("input: " + e);
    }
    if (campaign.series.empty()) {
        result.problems.emplace_back("campaign has no series records");
    } else if (total_trials(campaign) == 0) {
        result.problems.emplace_back("campaign has no trials");
    }
    for (const DriftRow& row : drift) {
        if (row.complete() && row.drift() != 0) {
            result.problems.push_back("series '" + row.series + "': trace event count " +
                                      u64_str(row.trace_events) + " != events_total " +
                                      u64_str(row.expected_events));
        }
    }
    result.ok = result.problems.empty();
    return result;
}

namespace {

/// Diff matching key: the config identity fields a sweep varies.
std::string series_key(const SeriesRecord& series) {
    return series.name + "|hop=" + series.hop_interval + "|seed" +
           u64_str(series.base_seed);
}

struct OutcomeSummary {
    int trials = 0;
    int successes = 0;
    int p25 = 0, p50 = 0, p75 = 0;
};

OutcomeSummary summarize_outcomes(const SeriesRecord& series) {
    OutcomeSummary summary;
    summary.trials = static_cast<int>(series.trials.size());
    std::vector<int> attempts;
    for (const world::RunResult& trial : series.trials) {
        if (!trial.success) continue;
        summary.successes++;
        attempts.push_back(trial.attempts);
    }
    summary.p25 = attempts_percentile(attempts, 25);
    summary.p50 = attempts_percentile(attempts, 50);
    summary.p75 = attempts_percentile(attempts, 75);
    return summary;
}

std::string signed_delta(int a, int b) {
    const int d = b - a;
    if (d == 0) return "0";
    return (d > 0 ? "+" : "") + std::to_string(d);
}

std::string rate_str(int successes, int trials) {
    if (trials == 0) return "n/a";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                  100.0 * static_cast<double>(successes) / static_cast<double>(trials));
    return buffer;
}

}  // namespace

std::string render_diff(const CampaignData& a, const CampaignData& b) {
    std::string out = "# campaign diff\n\n";
    std::map<std::string, const SeriesRecord*> b_by_key;
    for (const SeriesRecord& series : b.series) b_by_key[series_key(series)] = &series;

    out += "| series | trials | success A → B (Δ) | p25 att A → B (Δ) | "
           "p50 att A → B (Δ) | p75 att A → B (Δ) |\n";
    out += "|---|---|---|---|---|---|\n";
    int matched = 0;
    int changed = 0;
    std::vector<std::string> only_a;
    for (const SeriesRecord& series : a.series) {
        const auto it = b_by_key.find(series_key(series));
        if (it == b_by_key.end()) {
            only_a.push_back(series_key(series));
            continue;
        }
        matched++;
        const OutcomeSummary sa = summarize_outcomes(series);
        const OutcomeSummary sb = summarize_outcomes(*it->second);
        const bool differs = sa.successes != sb.successes || sa.trials != sb.trials ||
                             sa.p25 != sb.p25 || sa.p50 != sb.p50 || sa.p75 != sb.p75;
        if (differs) changed++;
        out += "| " + series_key(series) + " | " + std::to_string(sa.trials);
        if (sa.trials != sb.trials) out += " → " + std::to_string(sb.trials);
        out += " | " + rate_str(sa.successes, sa.trials) + " → " +
               rate_str(sb.successes, sb.trials) + " (" +
               signed_delta(sa.successes, sb.successes) + ")";
        out += " | " + std::to_string(sa.p25) + " → " + std::to_string(sb.p25) + " (" +
               signed_delta(sa.p25, sb.p25) + ")";
        out += " | " + std::to_string(sa.p50) + " → " + std::to_string(sb.p50) + " (" +
               signed_delta(sa.p50, sb.p50) + ")";
        out += " | " + std::to_string(sa.p75) + " → " + std::to_string(sb.p75) + " (" +
               signed_delta(sa.p75, sb.p75) + ")";
        out += " |\n";
        b_by_key.erase(it);
    }
    out += "\n" + std::to_string(matched) + " series matched, " + std::to_string(changed) +
           " with outcome deltas.\n";
    if (!only_a.empty()) {
        out += "\nOnly in A:\n";
        for (const std::string& key : only_a) out += "  - " + key + "\n";
    }
    if (!b_by_key.empty()) {
        out += "\nOnly in B:\n";
        for (const auto& [key, series] : b_by_key) {
            (void)series;
            out += "  - " + key + "\n";
        }
    }
    return out;
}

}  // namespace injectable::report
