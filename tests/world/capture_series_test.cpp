// End-to-end capture acceptance (ISSUE 10 / DESIGN.md §14): a Fig. 8 hijack
// trial produces PCAP artifacts that are byte-identical across reruns and
// worker counts, re-render identically from the recorded JSONL trace, and
// show the attacker's injected PDU exactly where a real sniffer would see it
// — present at the victim's vantage, absent from an out-of-range one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "link/trace.hpp"
#include "obs/capture/capture.hpp"
#include "world/experiment.hpp"
#include "world/world.hpp"

namespace injectable::world {
namespace {

using namespace ble;
using obs::capture::CaptureRecord;
using obs::capture::VantageKind;
using obs::capture::VantagePoint;

/// In-memory sink keyed by "kind/stem", normalized for any completion order.
class CollectingSink final : public ResultSink {
public:
    CollectingSink() {
        channels_.captures = true;
        channels_.traces = true;
        channels_.trace_all = true;  // keep successful-trial traces too
        channels_.wall_clock = false;
    }

    [[nodiscard]] const ResultChannels& channels() const noexcept override {
        return channels_;
    }
    void on_artifact(const TrialArtifact& artifact) override {
        const std::lock_guard<std::mutex> lock(mutex_);
        artifacts_[std::to_string(static_cast<int>(artifact.kind)) + "/" + artifact.stem] =
            artifact.content;
    }
    void on_series_record(const ExperimentConfig&, const SeriesSlice&,
                          const std::vector<RunResult>&,
                          const ble::obs::MetricsSnapshot*) override {}
    void on_progress(const std::string&, int, int) override {}

    [[nodiscard]] const std::map<std::string, std::string>& artifacts() const {
        return artifacts_;
    }

private:
    ResultChannels channels_;
    std::mutex mutex_;
    std::map<std::string, std::string> artifacts_;
};

ExperimentConfig small_series() {
    ExperimentConfig config;
    config.name = "capture-series";
    config.runs = 2;
    config.max_attempts = 300;
    config.base_seed = 4200;
    config.jobs = 1;
    return config;
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

bool contains_bytes(const Bytes& haystack, const Bytes& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
           haystack.end();
}

TEST(CaptureSeriesTest, CapturesAreByteIdenticalAcrossRerunsAndWorkerCounts) {
    const ExperimentConfig config = small_series();

    CollectingSink first;
    CollectingSink rerun;
    (void)run_series(config, first);
    (void)run_series(config, rerun);
    EXPECT_EQ(first.artifacts(), rerun.artifacts());

    // BENCH_JOBS equivalence: the same series fanned out on two workers must
    // produce the identical bytes trial-for-trial.
    ExperimentConfig wide = config;
    wide.jobs = 2;
    CollectingSink parallel;
    (void)run_series(wide, parallel);
    EXPECT_EQ(first.artifacts(), parallel.artifacts());

    // Per trial: one trace + one capture, keyed by seed, and the capture is a
    // parseable non-empty PCAP.
    int captures = 0;
    for (const auto& [key, content] : first.artifacts()) {
        if (key.rfind("3/", 0) != 0) continue;  // ArtifactKind::kPcapCapture
        ++captures;
        EXPECT_NE(key.find("capture-series-seed"), std::string::npos);
        const auto parsed = obs::capture::parse_capture(content);
        ASSERT_TRUE(parsed.ok) << key << ": " << parsed.error;
        EXPECT_FALSE(parsed.records.empty()) << key;
        // Reader round-trip: re-serializing the parsed records reproduces the
        // recorded file byte for byte.
        EXPECT_EQ(obs::capture::pcap_bytes(parsed.records), content) << key;
    }
    EXPECT_EQ(captures, config.runs);
}

TEST(CaptureSeriesTest, OfflineRenderFromTheTraceReproducesTheLiveCapture) {
    // What tools/pcap_export does, minus the filesystem: replay the recorded
    // JSONL trace through the shared builder and compare against the live
    // sink's artifact.
    CollectingSink sink;
    (void)run_series(small_series(), sink);

    int compared = 0;
    for (const auto& [key, content] : sink.artifacts()) {
        if (key.rfind("0/", 0) != 0) continue;  // ArtifactKind::kEventTrace
        const std::string stem = key.substr(2);
        const auto capture = sink.artifacts().find("3/" + stem);
        ASSERT_NE(capture, sink.artifacts().end()) << "no capture for " << stem;

        std::string error;
        const std::string pcap =
            obs::capture::pcap_from_trace_lines(split_lines(content), VantagePoint{}, &error);
        ASSERT_FALSE(obs::capture::parse_capture(pcap).records.empty())
            << stem << ": " << error;
        EXPECT_EQ(pcap, capture->second) << stem;
        ++compared;
    }
    EXPECT_EQ(compared, 2);
}

TEST(CaptureVantageTest, InjectedPduPresentAtVictimSnifferAbsentOutOfRange) {
    // A distinctive LL payload no legitimate frame carries.
    const Bytes marker = {0xC7, 0x19, 0x5A, 0xE3, 0x8D, 0x26,
                          0xB4, 0x71, 0x0F, 0x9C, 0x62, 0xD8};

    // Sinks outlive the world (bus subscribers must).
    obs::capture::CaptureSink omniscient;
    obs::capture::CaptureSink victim{VantagePoint{VantageKind::kDevice, "bulb"}};
    obs::capture::CaptureSink out_of_range{
        VantagePoint{VantageKind::kDevice, "far-sniffer"}};

    WorldSpec spec;  // the paper's Fig. 8 baseline testbed
    World w(spec, 7);
    w.bus().attach(omniscient);
    w.bus().attach(victim);
    w.bus().attach(out_of_range);

    // A sniffer parked 50 km out: every frame lands far below the -94 dBm
    // sensitivity, so its radio never locks and its vantage records nothing
    // (the natural out-of-range exclusion, not a special case).
    auto far = w.make_attacker("far-sniffer", sim::Position{50'000.0, 0.0});
    far->listen(17);

    ASSERT_TRUE(w.establish_and_sniff(10_s).has_value());
    w.start_traffic();
    w.session.restart(*w.sniffed, spec.attack);
    w.session.start();
    w.scheduler.run_until(w.scheduler.now() + 8 * connection_interval(spec.hop_interval));

    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.llid = link::Llid::kDataStart;
    request.payload = marker;
    request.max_attempts = 400;
    request.done = [&](bool ok, int) { outcome = ok; };
    w.session.inject(request);
    const Duration budget = connection_interval(spec.hop_interval) * (4 * 400 + 64);
    w.run_until(budget, [&] { return outcome.has_value(); });
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(*outcome) << "injection did not succeed under seed 7";

    const auto frames_with_marker = [&](const std::vector<CaptureRecord>& records) {
        return std::count_if(records.begin(), records.end(), [&](const CaptureRecord& r) {
            return contains_bytes(r.bytes, marker);
        });
    };

    // God view: the attacker's transmissions are always on the air.
    EXPECT_GT(frames_with_marker(omniscient.records()), 0);
    // The victim's sniffer vantage heard the injected PDU...
    EXPECT_FALSE(victim.records().empty());
    EXPECT_GT(frames_with_marker(victim.records()), 0);
    // ...and the out-of-range sniffer heard nothing at all.
    EXPECT_TRUE(out_of_range.records().empty());
}

/// One real trial's live capture and its JSONL trace lines.
struct RealArtifacts {
    std::string pcap;
    std::vector<std::string> trace;
};

RealArtifacts one_real_trial() {
    ExperimentConfig config = small_series();
    config.runs = 1;
    CollectingSink sink;
    (void)run_series(config, sink);
    RealArtifacts real;
    for (const auto& [key, content] : sink.artifacts()) {
        if (key.rfind("3/", 0) == 0) real.pcap = content;              // kPcapCapture
        if (key.rfind("0/", 0) == 0) real.trace = split_lines(content);  // kEventTrace
    }
    return real;
}

std::string random_bytes(Rng& rng, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<char>(rng.next_below(256)));
    return out;
}

TEST(CaptureGarbageTest, ReaderRejectsOrRoundTripsSeededGarbage) {
    // parse_capture reads outside bytes, so it must survive garbage: random
    // bytes, truncations and single-byte mutations of a real capture.  An
    // input it accepts must re-serialize to itself: the reader takes exactly
    // what the writer emits.
    const RealArtifacts real = one_real_trial();
    ASSERT_FALSE(real.pcap.empty());
    ASSERT_TRUE(obs::capture::parse_capture(real.pcap).ok);

    int accepted = 0;
    int rejected = 0;
    int unreproducible = 0;
    std::string first_unreproducible;
    const auto check = [&](const std::string& input) {
        const auto result = obs::capture::parse_capture(input);
        if (!result.ok) {
            EXPECT_FALSE(result.error.empty());
            ++rejected;
            return;
        }
        ++accepted;
        const std::string again = obs::capture::pcap_bytes(result.records);
        if (again != input && unreproducible++ == 0) {
            const auto at = std::mismatch(input.begin(), input.end(), again.begin(), again.end());
            first_unreproducible = std::to_string(input.size()) + " bytes, differs at offset " +
                                   std::to_string(at.first - input.begin());
        }
    };
    Rng rng(7100);
    const std::string& file = real.pcap;
    // Every cut through the file header and the first records, then a seeded
    // sample of the rest.
    for (std::size_t n = 0; n < std::min<std::size_t>(file.size(), 256); ++n) {
        check(file.substr(0, n));
    }
    for (int i = 0; i < 300; ++i) check(file.substr(0, rng.next_below(file.size())));
    for (int i = 0; i < 3000; ++i) {
        std::string mutated = file;
        mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next_below(256));
        check(mutated);
    }
    // Random records behind the 24-byte file header, and random bytes alone.
    for (int i = 0; i < 400; ++i) {
        const std::string prefix = i % 2 == 0 ? file.substr(0, 24) : std::string();
        check(prefix + random_bytes(rng, rng.next_below(200)));
    }
    EXPECT_EQ(unreproducible, 0) << "first accepted input it cannot reproduce: "
                                 << first_unreproducible;
    EXPECT_GT(accepted, 1000);  // payload-byte mutations still parse
    EXPECT_GT(rejected, 1000);
}

TEST(CaptureGarbageTest, OfflineRendererSurvivesMutatedTraceLines) {
    // pcap_from_trace_lines (what tools/pcap_export runs) decodes the tx
    // and rx lines of a trace file.  Mutated lines must come back as an
    // error or as a capture, never as a crash, at both kinds of vantage.
    const RealArtifacts real = one_real_trial();
    ASSERT_GT(real.trace.size(), 4u);
    Rng rng(7101);
    int errors = 0;
    for (int i = 0; i < 600; ++i) {
        std::vector<std::string> lines = real.trace;
        std::string& line = lines[1 + rng.next_below(lines.size() - 1)];
        switch (i % 3) {
            case 0:
                if (!line.empty()) {
                    line[rng.next_below(line.size())] = static_cast<char>(rng.next_below(256));
                }
                break;
            case 1: line.resize(rng.next_below(line.size() + 1)); break;
            default: line = random_bytes(rng, rng.next_below(80)); break;
        }
        const VantagePoint vantage = i % 2 == 0 ? VantagePoint{}
                                                : VantagePoint{VantageKind::kDevice, "bulb"};
        std::string error;
        const std::string pcap = obs::capture::pcap_from_trace_lines(lines, vantage, &error);
        if (!error.empty()) {
            EXPECT_TRUE(pcap.empty()) << error;
            ++errors;
        } else {
            EXPECT_TRUE(obs::capture::parse_capture(pcap).ok);
        }
    }
    EXPECT_GT(errors, 0);
}

TEST(DescribeFrameSweepTest, EveryFig8BaselineFrameDecodesWithoutUnknowns) {
    // Satellite: sweep every frame a full baseline trial emits (advertising,
    // CONNECT_REQ, control procedures, ATT traffic, the injected PDU) through
    // link::describe_frame — none may come back unknown or malformed.
    ExperimentConfig config;
    config.name = "describe-sweep";
    config.max_attempts = 300;

    std::vector<std::string> descriptions;
    config.per_trial_sinks = [&](ble::obs::EventBus& bus, std::uint64_t) {
        // Every world this builds (setup retries included) is a Fig. 8
        // baseline world, so every frame belongs in the sweep.
        bus.subscribe([&](const ble::obs::Event& event) {
            if (const auto* tx = std::get_if<ble::obs::TxStart>(&event)) {
                descriptions.push_back(link::describe_frame(tx->bytes));
            }
        });
    };
    // A successful trial is short (the paper's attack often lands within a
    // few attempts), so sweep several seeds for frame-type variety.
    for (std::uint64_t seed = 4201; seed < 4206; ++seed) {
        World w(config.world, seed);
        const RunResult result = run_injection_experiment(w, config, seed);
        ASSERT_TRUE(result.established) << "seed " << seed;
        ASSERT_TRUE(result.sniffed) << "seed " << seed;
    }

    ASSERT_GT(descriptions.size(), 100u);  // several trials' worth of traffic
    bool saw_connect_req = false;
    bool saw_data = false;
    for (const std::string& desc : descriptions) {
        EXPECT_FALSE(desc.empty());
        EXPECT_EQ(desc.find("malformed"), std::string::npos) << desc;
        EXPECT_EQ(desc.find("ADV_UNKNOWN"), std::string::npos) << desc;
        // LL_UNKNOWN_RSP is a legitimate opcode; a bare LL_UNKNOWN is the
        // decoder giving up.
        if (desc.find("LL_UNKNOWN") != std::string::npos) {
            EXPECT_NE(desc.find("LL_UNKNOWN_RSP"), std::string::npos) << desc;
        }
        saw_connect_req = saw_connect_req || desc.find("CONNECT_REQ") != std::string::npos;
        saw_data = saw_data || desc.find("DATA ") != std::string::npos;
    }
    EXPECT_TRUE(saw_connect_req);  // the sweep really covered establishment
    EXPECT_TRUE(saw_data);         // and the data phase
    // The CONNECT_REQ detail decode (AA/hop/window) is part of the sweep.
    const auto req = std::find_if(descriptions.begin(), descriptions.end(),
                                  [](const std::string& d) {
                                      return d.find("CONNECT_REQ") != std::string::npos;
                                  });
    ASSERT_NE(req, descriptions.end());
    EXPECT_NE(req->find("AA="), std::string::npos) << *req;
    EXPECT_NE(req->find("hop="), std::string::npos) << *req;
}

}  // namespace
}  // namespace injectable::world
