#include "campaign_report/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"

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

void html_escape(std::string& out, std::string_view s) {
    for (const char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += c;
        }
    }
}

bool parse_trial(const json::Value& v, TrialRecord& out) {
    if (v.kind != json::Value::Kind::kObject) return false;
    out.seed = v.u64("seed", 0);
    out.success = v.boolean_at("success", false);
    out.attempts = static_cast<int>(v.i64("attempts", 0));
    out.established = v.boolean_at("established", false);
    out.sniffed = v.boolean_at("sniffed", false);
    out.session_lost = v.boolean_at("session_lost", false);
    out.victim_disconnected = v.boolean_at("victim_disconnected", false);
    return true;
}

bool parse_metrics(const json::Value& metrics, SeriesRecord& out, std::string& error) {
    if (const json::Value* counters = metrics.find("counters")) {
        for (const auto& [name, v] : counters->object) out.counters[name] = v.as_u64(0);
    }
    if (const json::Value* gauges = metrics.find("gauges")) {
        for (const auto& [name, v] : gauges->object) {
            GaugeRecord g;
            g.n = v.u64("n", 0);
            g.last = v.i64("last", 0);
            g.min = v.i64("min", 0);
            g.max = v.i64("max", 0);
            out.gauges[name] = g;
        }
    }
    if (const json::Value* hists = metrics.find("histograms")) {
        for (const auto& [name, v] : hists->object) {
            HistRecord h;
            h.n = v.u64("n", 0);
            h.sum = v.u64("sum", 0);
            h.min = v.u64("min", 0);
            h.max = v.u64("max", 0);
            if (const json::Value* buckets = v.find("buckets")) {
                for (const json::Value& pair : buckets->array) {
                    if (pair.array.size() != 2) continue;
                    const std::int64_t b = pair.array[0].as_i64(-1);
                    // MetricsSnapshot writes bit_width indices, 0..64; any
                    // other index would make bucket_range() shift out of range.
                    if (b < 0 || b >= ble::obs::kHistogramBuckets) {
                        error = "histogram '" + name + "' has bucket index " +
                                std::to_string(b) + " outside 0.." +
                                std::to_string(ble::obs::kHistogramBuckets - 1);
                        return false;
                    }
                    h.buckets[static_cast<int>(b)] += pair.array[1].as_u64(0);
                }
            }
            out.histograms[name] = std::move(h);
        }
    }
    return true;
}

bool parse_series_line(const std::string& line, const std::string& source,
                       SeriesRecord& out, std::string& error) {
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
    out.runs = static_cast<int>(root.i64("runs", 0));
    out.jobs = static_cast<int>(root.i64("jobs", 0));
    if (const json::Value* hop = root.find("hop_interval")) out.hop_interval = hop->raw;
    out.source = source;
    const json::Value* trials = root.find("trials");
    if (trials == nullptr || trials->kind != json::Value::Kind::kArray) {
        error = "series record has no \"trials\" array";
        return false;
    }
    for (const json::Value& t : trials->array) {
        TrialRecord trial;
        if (parse_trial(t, trial)) out.trials.push_back(trial);
    }
    const json::Value* metrics = root.find("metrics");
    return metrics == nullptr || parse_metrics(*metrics, out, error);
}

std::uint64_t total_trials(const CampaignData& campaign) {
    std::uint64_t n = 0;
    for (const SeriesRecord& s : campaign.series) n += s.trials.size();
    return n;
}

std::uint64_t total_successes(const CampaignData& campaign) {
    std::uint64_t n = 0;
    for (const SeriesRecord& s : campaign.series) {
        for (const TrialRecord& t : s.trials) n += t.success ? 1 : 0;
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

std::string render_histogram(const std::string& name, const HistRecord& hist) {
    std::string out = "### `" + name + "`\n\n";
    out += "samples " + u64_str(hist.n) + ", sum " + u64_str(hist.sum);
    if (hist.n > 0) {
        out += ", min " + u64_str(hist.min) + ", max " + u64_str(hist.max) + ", mean " +
               fixed1(static_cast<double>(hist.sum) / static_cast<double>(hist.n));
    }
    out += "\n\n```\n";
    std::uint64_t max_count = 0;
    for (const auto& [b, count] : hist.buckets) max_count = std::max(max_count, count);
    for (const auto& [b, count] : hist.buckets) {
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

/// The drift/series/counters tables are shared between renderers as
/// markdown; the HTML page embeds them via a tiny md-table-to-html pass.
std::string series_table(const CampaignData& campaign) {
    std::string out =
        "| series | base seed | trials | jobs | hop interval | success | attempts p50 | "
        "p90 | max |\n|---|---|---|---|---|---|---|---|---|\n";
    for (const SeriesRecord& s : campaign.series) {
        std::vector<int> attempts;
        std::uint64_t wins = 0;
        for (const TrialRecord& t : s.trials) {
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
        for (const auto& [name, value] : s.counters) totals[name] += value;
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

/// Minimal markdown-table → HTML-table conversion for the tables above (all
/// generated here, so the dialect is fixed: header row, separator, data).
std::string md_table_to_html(const std::string& md) {
    std::string out = "<table>";
    std::size_t start = 0;
    int row = 0;
    while (start < md.size()) {
        std::size_t end = md.find('\n', start);
        if (end == std::string::npos) end = md.size();
        const std::string_view line(md.data() + start, end - start);
        start = end + 1;
        if (line.size() < 2 || line.front() != '|') continue;
        if (line.find("|---") == 0) continue;  // separator row
        const char* tag = row == 0 ? "th" : "td";
        out += "<tr>";
        std::string_view rest = line.substr(1);  // leading '|'
        while (!rest.empty()) {
            const std::size_t bar_at = rest.find('|');
            if (bar_at == std::string_view::npos) break;
            std::string_view cell = rest.substr(0, bar_at);
            while (!cell.empty() && cell.front() == ' ') cell.remove_prefix(1);
            while (!cell.empty() && cell.back() == ' ') cell.remove_suffix(1);
            out += std::string("<") + tag + ">";
            html_escape(out, cell);
            out += std::string("</") + tag + ">";
            rest.remove_prefix(bar_at + 1);
        }
        out += "</tr>";
        ++row;
    }
    out += "</table>";
    return out;
}

}  // namespace

void HistRecord::merge(const HistRecord& other) {
    if (other.n > 0) {
        min = n == 0 ? other.min : std::min(min, other.min);
        max = n == 0 ? other.max : std::max(max, other.max);
    }
    n += other.n;
    sum += other.sum;
    for (const auto& [b, count] : other.buckets) buckets[b] += count;
}

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
            const std::string source = path + ":" + std::to_string(n + 1);
            if (parse_series_line(lines[n], source, series, parse_error)) {
                campaign.series.push_back(std::move(series));
            } else {
                campaign.errors.push_back(source + ": " + parse_error);
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
        const auto events_total = series.counters.find("events_total");
        row.expected_events = events_total == series.counters.end() ? 0 : events_total->second;
        const std::string stem_base =
            traces_dir + "/" + world::sanitize_experiment_name(series.name) + "-seed";
        for (const TrialRecord& trial : series.trials) {
            const std::string stem = stem_base + u64_str(trial.seed) + ".jsonl";
            std::string error;
            std::vector<std::string> lines = ble::obs::read_jsonl_file(stem, &error);
            if (lines.empty()) lines = ble::obs::read_jsonl_file(stem + ".gz", &error);
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
    std::map<std::string, HistRecord> hists;
    for (const SeriesRecord& s : campaign.series) {
        for (const auto& [name, h] : s.histograms) hists[name].merge(h);
    }
    if (!hists.empty()) {
        out += "## Histograms (log2 buckets, merged across series)\n\n";
        for (const auto& [name, h] : hists) {
            if (h.n == 0) continue;
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

std::string render_html(const CampaignData& campaign, const std::vector<DriftRow>& drift,
                        bool have_traces) {
    std::string out =
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
        "<title>Campaign report</title>\n<style>\n"
        "body{font-family:system-ui,sans-serif;margin:2em;max-width:72em}\n"
        "table{border-collapse:collapse;margin:1em 0}\n"
        "th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:left;"
        "font-variant-numeric:tabular-nums}\n"
        "th{background:#f0f0f0}\npre{background:#f7f7f7;padding:0.8em;overflow-x:auto}\n"
        "</style></head><body>\n<h1>Campaign report</h1>\n<p>";
    out += u64_str(campaign.series.size()) + " series, " + u64_str(total_trials(campaign)) +
           " trials, " + pct_str(total_successes(campaign), total_trials(campaign)) +
           " overall injection success.</p>\n";
    if (!campaign.errors.empty()) {
        out += "<h2>Input problems</h2>\n<ul>\n";
        for (const std::string& e : campaign.errors) {
            out += "<li>";
            html_escape(out, e);
            out += "</li>\n";
        }
        out += "</ul>\n";
    }
    out += "<h2>Series</h2>\n" + md_table_to_html(series_table(campaign));
    out += "\n<h2>Outcome counters</h2>\n" + md_table_to_html(counters_table(campaign));

    std::map<std::string, HistRecord> hists;
    for (const SeriesRecord& s : campaign.series) {
        for (const auto& [name, h] : s.histograms) hists[name].merge(h);
    }
    if (!hists.empty()) {
        out += "<h2>Histograms (log2 buckets, merged across series)</h2>\n<pre>";
        std::string text;
        for (const auto& [name, h] : hists) {
            if (h.n == 0) continue;
            text += render_histogram(name, h);
        }
        html_escape(out, text);
        out += "</pre>\n";
    }

    if (have_traces) {
        out += "<h2>Event-count drift</h2>\n" + md_table_to_html(drift_table(drift)) + "\n";
    }
    out += "</body></html>\n";
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
    for (const TrialRecord& trial : series.trials) {
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
