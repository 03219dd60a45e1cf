// Every byte a series run hands to its ResultSink, pinned: the JSONL event
// traces (meta header + one line per event), the omniscient PCAP captures and
// the series record.  A renderer change that moves a single output byte fails
// here, in tier-1, and not only in the benchmark's golden digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "world/experiment.hpp"
#include "world/result_sink.hpp"

namespace injectable::world {
namespace {

/// FNV-1a over raw bytes.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void mix(const void* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char*>(data)[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { mix(&v, sizeof v); }
    void str(const std::string& s) {
        u64(s.size());
        mix(s.data(), s.size());
    }
};

/// Folds every artifact and record into one digest, in arrival order (one
/// worker thread, so trial order).
class DigestSink final : public ResultSink {
public:
    DigestSink() {
        channels_.traces = true;
        channels_.trace_all = true;
        channels_.captures = true;
        channels_.series_record = true;
        channels_.wall_clock = false;
    }

    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }

    void on_artifact(const TrialArtifact& artifact) override {
        ++artifacts;
        bytes += artifact.content.size();
        digest.u64(static_cast<std::uint64_t>(artifact.kind));
        digest.str(artifact.stem);
        digest.str(artifact.content);
    }

    void on_series_record(const ExperimentConfig& config, const SeriesSlice&,
                          const std::vector<RunResult>& results,
                          const ble::obs::MetricsSnapshot* metrics) override {
        const std::string record = to_json(config, results, metrics);
        bytes += record.size();
        digest.str(record);
    }

    void on_progress(const std::string&, int, int) override {}

    Fnv1a digest;
    int artifacts = 0;
    std::uint64_t bytes = 0;

private:
    ResultChannels channels_;
};

TEST(ArtifactBytes, Exp3SeriesIsPinned) {
    // Exp 3's geometry (bulb at the origin, phone 2 m away, attacker on the
    // far side) at positions D and F.  Recorded before the JSONL renderer
    // moved to one append-only buffer with std::to_chars numbers.
    DigestSink sink;
    for (const double distance_m : {6.0, 10.0}) {
        ExperimentConfig config;
        config.name = "exp3-pin";
        config.runs = 3;
        config.jobs = 1;
        config.base_seed = 3000 + static_cast<std::uint64_t>(distance_m * 10);
        config.world.hop_interval = 36;
        config.ll_payload_size = 12;
        config.world.peripheral_pos = {0.0, 0.0};
        config.world.central_pos = {2.0, 0.0};
        config.world.attacker_pos = {-distance_m, 0.0};
        const std::vector<RunResult> results = run_series(config, sink);
        ASSERT_EQ(results.size(), 3u);
    }
    EXPECT_EQ(sink.artifacts, 12);  // one trace and one pcap per trial
    EXPECT_EQ(sink.bytes, 352514u);
    EXPECT_EQ(sink.digest.h, 0xc895cc12bec1ec9bULL);
}

}  // namespace
}  // namespace injectable::world
