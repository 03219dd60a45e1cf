// campaign_report CLI: fold a campaign's INJECTABLE_JSON records (plus,
// optionally, its trace directory) into one self-contained report.
//
//   campaign_report [--traces DIR] [--md FILE] [--check] <results.jsonl>...
//   campaign_report --diff <A.jsonl> <B.jsonl> [--md FILE]
//
//   --traces DIR     also check recorded-vs-expected event counts against
//                    the per-trial traces under DIR (INJECTABLE_TRACE_DIR)
//   --md FILE        write the markdown report to FILE (default: stdout)
//   --check          gate mode: exit 1 when the campaign is empty, any
//                    input line is unparsable, or any complete trace set
//                    disagrees with its series' events_total counter
//   --diff A B       differential mode: per-series outcome deltas (success
//                    rate, attempt percentiles) between two campaigns
//
// exits 0 on success, 1 on --check failure, 2 on usage/IO errors.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign_report/report.hpp"
#include "obs/sinks.hpp"

namespace {

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--traces DIR] [--md FILE] [--check] <results.jsonl>...\n"
                 "       campaign_report --diff <A.jsonl> <B.jsonl> [--md FILE]\n"
                 "  Aggregates INJECTABLE_JSON campaign records into one report:\n"
                 "  per-series tables, counters, log2 histograms and (with\n"
                 "  --traces) event-count drift.\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace injectable::report;

    std::string traces_dir;
    std::string md_path;
    bool check = false;
    bool diff = false;
    std::vector<std::string> json_paths;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto value_of = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--traces") == 0) {
            const char* v = value_of("--traces");
            if (v == nullptr) return 2;
            traces_dir = v;
            continue;
        }
        if (std::strcmp(arg, "--md") == 0) {
            const char* v = value_of("--md");
            if (v == nullptr) return 2;
            md_path = v;
            continue;
        }
        if (std::strcmp(arg, "--check") == 0) {
            check = true;
            continue;
        }
        if (std::strcmp(arg, "--diff") == 0) {
            diff = true;
            continue;
        }
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage(argv[0]);
            return 0;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            print_usage(argv[0]);
            return 2;
        }
        json_paths.emplace_back(arg);
    }
    if (json_paths.empty()) {
        print_usage(argv[0]);
        return 2;
    }

    if (diff) {
        if (json_paths.size() != 2) {
            std::fprintf(stderr, "%s: --diff needs exactly two campaign files\n", argv[0]);
            return 2;
        }
        const CampaignData a = load_campaign({json_paths[0]});
        const CampaignData b = load_campaign({json_paths[1]});
        for (const CampaignData* c : {&a, &b}) {
            for (const std::string& e : c->errors) {
                std::fprintf(stderr, "%s: %s\n", argv[0], e.c_str());
            }
        }
        if (!a.errors.empty() || !b.errors.empty()) return 2;
        const std::string md = render_diff(a, b);
        if (md_path.empty()) {
            std::fputs(md.c_str(), stdout);
        } else if (!ble::obs::write_text_file(md_path, md)) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0], md_path.c_str());
            return 2;
        }
        return 0;
    }

    const CampaignData campaign = load_campaign(json_paths);
    const std::vector<DriftRow> drift = compute_drift(campaign, traces_dir);
    const bool have_traces = !traces_dir.empty();

    const std::string md = render_markdown(campaign, drift, have_traces);
    if (md_path.empty()) {
        if (!check) std::fputs(md.c_str(), stdout);
    } else if (!ble::obs::write_text_file(md_path, md)) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0], md_path.c_str());
        return 2;
    }

    if (check) {
        const CheckResult result = check_campaign(campaign, drift);
        if (!result.ok) {
            for (const std::string& problem : result.problems) {
                std::fprintf(stderr, "CHECK %s\n", problem.c_str());
            }
            std::fprintf(stderr, "campaign_report: %zu problem%s\n",
                         result.problems.size(),
                         result.problems.size() == 1 ? "" : "s");
            return 1;
        }
        std::fprintf(stderr, "campaign_report: check passed (%zu series, %zu drift rows)\n",
                     campaign.series.size(), drift.size());
    }
    return 0;
}
