// campaign_report golden-output test: a tiny two-config campaign is run for
// real (profiled, traces on), folded into a report, and the result must be
// reproducible byte for byte — the report is a pure function of the
// campaign's deterministic fields.  Also pins the --check gate semantics:
// clean campaign passes, tampered trace / empty input / bad JSON fail.
#include "campaign_report/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "world/experiment.hpp"

namespace injectable::report {
namespace {

using injectable::world::ExperimentConfig;
using injectable::world::RunResult;
using injectable::world::run_series;
using injectable::world::to_json;

/// Runs the tiny two-config campaign once per fixture instance: series
/// records land in `json_path`, per-trial traces under `traces_dir`.
class CampaignFixture : public ::testing::Test {
protected:
    void SetUp() override {
        char tmpl[] = "/tmp/campaign_report_test.XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        traces_dir_ = dir_ + "/traces";
        json_path_ = dir_ + "/results.jsonl";
        std::filesystem::create_directories(traces_dir_);
        ASSERT_EQ(setenv("INJECTABLE_TRACE_DIR", traces_dir_.c_str(), 1), 0);
        ASSERT_EQ(setenv("INJECTABLE_TRACE_ALL", "1", 1), 0);
        ASSERT_EQ(setenv("INJECTABLE_PROF", "1", 1), 0);

        std::ofstream json(json_path_, std::ios::binary);
        for (const int hop : {25, 50}) {
            ExperimentConfig config;
            config.name = "report-test-hop" + std::to_string(hop);
            config.runs = 2;
            config.max_attempts = 60;
            config.base_seed = 3000 + static_cast<std::uint64_t>(hop);
            config.jobs = 1;
            config.world.hop_interval = static_cast<std::uint16_t>(hop);
            ble::obs::MetricsSnapshot merged;
            config.on_series_metrics = [&merged](const ble::obs::MetricsSnapshot& snapshot) {
                merged = snapshot;
            };
            const std::vector<RunResult> results = run_series(config);
            json << to_json(config, results, &merged) << "\n";
        }
    }

    void TearDown() override {
        unsetenv("INJECTABLE_TRACE_DIR");
        unsetenv("INJECTABLE_TRACE_ALL");
        unsetenv("INJECTABLE_PROF");
    }

    std::string dir_;
    std::string traces_dir_;
    std::string json_path_;
};

TEST_F(CampaignFixture, ReportIsDeterministicAndComplete) {
    const CampaignData campaign = load_campaign({json_path_});
    ASSERT_TRUE(campaign.errors.empty());
    ASSERT_EQ(campaign.series.size(), 2u);
    EXPECT_EQ(campaign.series[0].name, "report-test-hop25");
    EXPECT_EQ(campaign.series[1].name, "report-test-hop50");
    EXPECT_EQ(campaign.series[0].trials.size(), 2u);

    const std::vector<DriftRow> drift = compute_drift(campaign, traces_dir_);
    ASSERT_EQ(drift.size(), 2u);
    for (const DriftRow& row : drift) {
        EXPECT_EQ(row.traces_found, 2) << row.series;
        EXPECT_TRUE(row.complete());
        EXPECT_EQ(row.drift(), 0) << row.series;
    }

    const std::string md = render_markdown(campaign, drift, true);
    EXPECT_EQ(md, render_markdown(load_campaign({json_path_}),
                                  compute_drift(campaign, traces_dir_), true))
        << "report must be byte-deterministic";
    for (const char* needle :
         {"# Campaign report", "## Series", "report-test-hop25", "report-test-hop50",
          "## Outcome counters", "events_total", "| prof.span.sim.dispatch.count |",
          "## Event-count drift", "| 2/2 |"}) {
        EXPECT_NE(md.find(needle), std::string::npos) << "missing: " << needle;
    }
    EXPECT_EQ(md.find("wall"), std::string::npos)
        << "wall-clock values must never reach the report";

    const std::string html = render_html(campaign, drift, true);
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("report-test-hop25"), std::string::npos);
}

TEST_F(CampaignFixture, CheckPassesOnCleanCampaignAndFailsOnTamperedTrace) {
    const CampaignData campaign = load_campaign({json_path_});
    {
        const CheckResult ok =
            check_campaign(campaign, compute_drift(campaign, traces_dir_));
        EXPECT_TRUE(ok.ok) << (ok.problems.empty() ? "" : ok.problems.front());
    }
    // One extra event line in one trace: exactly one drift problem.
    const std::string victim =
        traces_dir_ + "/report-test-hop25-seed3025.jsonl";
    std::ofstream tamper(victim, std::ios::binary | std::ios::app);
    ASSERT_TRUE(tamper.is_open());
    tamper << "{\"e\":\"Extra\",\"t\":1}\n";
    tamper.close();
    const CheckResult bad = check_campaign(campaign, compute_drift(campaign, traces_dir_));
    EXPECT_FALSE(bad.ok);
    ASSERT_EQ(bad.problems.size(), 1u);
    EXPECT_NE(bad.problems[0].find("report-test-hop25"), std::string::npos);
}

TEST(CampaignReport, EmptyAndUnparsableInputsFailCheck) {
    const CampaignData missing = load_campaign({"/nonexistent/results.jsonl"});
    EXPECT_FALSE(check_campaign(missing, {}).ok);

    char tmpl[] = "/tmp/campaign_report_test.XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/bad.jsonl";
    std::ofstream out(path, std::ios::binary);
    out << "{not json\n";
    out.close();
    const CampaignData bad = load_campaign({path});
    ASSERT_EQ(bad.errors.size(), 1u);
    EXPECT_FALSE(check_campaign(bad, {}).ok);
}

TEST(CampaignReport, OutOfRangeHistogramBucketFailsCheck) {
    char tmpl[] = "/tmp/campaign_report_test.XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/doctored.jsonl";
    // bit_width indices run 0..64; 70 would be an over-wide shift when the
    // bucket's value range is rendered.
    std::ofstream(path, std::ios::binary)
        << R"({"experiment":"doctored","trials":[{"seed":1,"success":true,"attempts":2}],)"
        << R"("metrics":{"histograms":{"h":{"n":1,"sum":9,"min":9,"max":9,)"
        << R"("buckets":[[70,1]]}}}})" << "\n";
    const CampaignData campaign = load_campaign({path});
    ASSERT_EQ(campaign.errors.size(), 1u);
    EXPECT_NE(campaign.errors[0].find("bucket index 70"), std::string::npos)
        << campaign.errors[0];
    EXPECT_FALSE(check_campaign(campaign, {}).ok);
    EXPECT_EQ(render_markdown(campaign, {}, false).find("18446744073709551615"),
              std::string::npos);

    // The top index MetricsSnapshot can write still loads.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << R"({"experiment":"edge","trials":[{"seed":1,"success":true,"attempts":2}],)"
        << R"("metrics":{"histograms":{"h":{"n":1,"sum":1,"min":1,"max":1,)"
        << R"("buckets":[[64,1]]}}}})" << "\n";
    const CampaignData edge = load_campaign({path});
    EXPECT_TRUE(edge.errors.empty()) << (edge.errors.empty() ? "" : edge.errors[0]);
    EXPECT_TRUE(check_campaign(edge, {}).ok);
}

namespace {

SeriesRecord diff_series(const std::string& name, std::uint64_t seed,
                         const std::vector<int>& attempts_on_success) {
    SeriesRecord series;
    series.name = name;
    series.base_seed = seed;
    series.hop_interval = "50";
    for (std::size_t i = 0; i < attempts_on_success.size(); ++i) {
        TrialRecord trial;
        trial.seed = seed + i;
        trial.success = attempts_on_success[i] > 0;
        trial.attempts = trial.success ? attempts_on_success[i] : 7;
        series.trials.push_back(trial);
    }
    series.runs = static_cast<int>(series.trials.size());
    return series;
}

}  // namespace

TEST(CampaignReport, DiffReportsOutcomeDeltasAndUnmatchedSeries) {
    CampaignData a;
    a.series.push_back(diff_series("same", 100, {2, 3, 4, 5}));
    a.series.push_back(diff_series("shift", 200, {2, 2, 2, 2}));
    a.series.push_back(diff_series("only-a", 300, {1}));

    CampaignData b;
    b.series.push_back(diff_series("same", 100, {2, 3, 4, 5}));
    b.series.push_back(diff_series("shift", 200, {4, 4, 0, 0}));
    b.series.push_back(diff_series("only-b", 400, {1}));

    const std::string md = render_diff(a, b);
    // Identical series: zero deltas.
    EXPECT_NE(md.find("| same|hop=50|seed100 | 4 | 100.0% → 100.0% (0) |"),
              std::string::npos);
    // Changed series: success rate dropped, median attempts moved 2 → 4.
    EXPECT_NE(md.find("100.0% → 50.0% (-2)"), std::string::npos);
    EXPECT_NE(md.find("2 → 4 (+2)"), std::string::npos);
    // Unmatched series called out on both sides.
    EXPECT_NE(md.find("Only in A"), std::string::npos);
    EXPECT_NE(md.find("only-a|hop=50|seed300"), std::string::npos);
    EXPECT_NE(md.find("Only in B"), std::string::npos);
    EXPECT_NE(md.find("only-b|hop=50|seed400"), std::string::npos);
    EXPECT_NE(md.find("2 series matched, 1 with outcome deltas"), std::string::npos);

    // The diff is a pure function of its inputs.
    EXPECT_EQ(md, render_diff(a, b));
}

}  // namespace
}  // namespace injectable::report
