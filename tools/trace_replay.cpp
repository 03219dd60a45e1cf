// trace_replay: re-run a recorded trial trace and diff the event streams,
// or summarize what a campaign's traces contain.
//
// Every JSONL trace written by run_series (INJECTABLE_TRACE_DIR) starts with
// a meta header that reconstructs the trial's ExperimentConfig; a trial is a
// pure function of (config, seed), so replaying that seed must reproduce the
// recorded event stream byte for byte.  This tool is the determinism
// guarantee as an executable check:
//
//   trace_replay [--diff] [--stats] [--quiet] <trace.jsonl>...
//
//   --diff   (default) replay each trace and diff against the recording;
//            exits 0 when every trace replays without divergence, 1 when any
//            event differs (printing the first divergent event of each
//            failing trace), 2 on usage / I/O / meta errors.
//   --stats  no replay: tally recorded events by type ("e" field) per trace
//            and print the aggregate table across all traces — a quick
//            what-happened view of a campaign directory.  Exits 0, or 2 on
//            unreadable traces or a line that is not a trace event.
//
//   trace_replay --from-json <results.jsonl>...
//            replay whole series straight from INJECTABLE_JSON records: each
//            line embeds the trace meta header plus the per-trial seed list,
//            so every (config, seed) re-runs and the deterministic outcome
//            fields are diffed — no stored traces needed.  Same exit codes
//            as --diff.
//
//   trace_replay --pcap-diff <trace.jsonl> <capture.pcap>
//            render the trace offline through the capture subsystem
//            (omniscient vantage) and byte-compare against the recorded
//            capture — the capture counterpart of --diff: a live
//            CaptureSink and the offline exporter must agree bit for bit.
//            Also round-trips the recorded file through the in-repo reader
//            (parse + re-serialize must reproduce the input).  Exits 0
//            identical, 1 divergent, 2 on usage / I/O errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/capture/capture.hpp"
#include "obs/sinks.hpp"
#include "world/replay.hpp"

namespace {

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--diff] [--stats] [--quiet] <trace.jsonl>...\n"
                 "       %s --from-json [--quiet] <results.jsonl>...\n"
                 "       %s --pcap-diff [--quiet] <trace.jsonl> <capture.pcap>\n"
                 "  --diff       replay each trace (seed + config from its meta header)\n"
                 "               and diff the recorded event stream against the fresh\n"
                 "               one (the default mode)\n"
                 "  --stats      tally recorded events by type per trace and print the\n"
                 "               aggregate counts across all traces (no replay)\n"
                 "  --from-json  re-run every series recorded in INJECTABLE_JSON files\n"
                 "               (config + seed list from each line's meta) and diff the\n"
                 "               deterministic per-trial outcomes, without stored traces\n"
                 "  --pcap-diff  render the trace offline through the capture subsystem\n"
                 "               and byte-compare against the recorded .pcap capture\n"
                 "               (omniscient vantage)\n"
                 "  --quiet      suppress per-trace/per-series OK lines\n",
                 argv0, argv0, argv0);
}

/// Event name from a trace line: every line is a flat JSON object written by
/// us, starting {"e":"<Name>",...}.  Empty string when the line is not in
/// that shape.
std::string event_name(const std::string& line) {
    constexpr const char* kPrefix = "{\"e\":\"";
    constexpr std::size_t kPrefixLen = 6;
    if (line.rfind(kPrefix, 0) != 0) return {};
    const std::size_t end = line.find('"', kPrefixLen);
    if (end == std::string::npos) return {};
    return line.substr(kPrefixLen, end - kPrefixLen);
}

int run_stats(const std::vector<std::string>& paths, bool quiet) {
    std::map<std::string, std::uint64_t> aggregate;
    std::uint64_t total_events = 0;
    int errors = 0;
    int traces = 0;
    for (const std::string& path : paths) {
        std::string error;
        const std::vector<std::string> lines = ble::obs::read_jsonl_file(path, &error);
        if (lines.empty()) {
            std::fprintf(stderr, "ERROR %s: %s\n", path.c_str(),
                         error.empty() ? "empty trace" : error.c_str());
            ++errors;
            continue;
        }
        const auto stray = std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
            return event_name(line).empty();
        });
        if (stray != lines.end()) {
            std::fprintf(stderr, "ERROR %s: line %zu is not a trace event\n", path.c_str(),
                         static_cast<std::size_t>(stray - lines.begin()) + 1);
            ++errors;
            continue;
        }
        ++traces;
        std::uint64_t events = 0;
        for (const std::string& line : lines) {
            const std::string name = event_name(line);
            if (name == "meta") continue;  // header carries no event
            ++aggregate[name];
            ++events;
        }
        total_events += events;
        if (!quiet) {
            std::printf("STAT %s: %llu events\n", path.c_str(),
                        static_cast<unsigned long long>(events));
        }
    }
    std::printf("event counts across %d trace%s (%llu events):\n", traces,
                traces == 1 ? "" : "s", static_cast<unsigned long long>(total_events));
    for (const auto& [name, count] : aggregate) {
        std::printf("  %-24s %llu\n", name.c_str(), static_cast<unsigned long long>(count));
    }
    return errors > 0 ? 2 : 0;
}

int run_from_json(const std::vector<std::string>& paths, bool quiet) {
    using injectable::world::SeriesReplay;
    using injectable::world::SeriesTrialDiff;
    using injectable::world::replay_series_line;

    int divergences = 0;
    int errors = 0;
    for (const std::string& path : paths) {
        std::string error;
        const std::vector<std::string> lines = ble::obs::read_jsonl_file(path, &error);
        if (lines.empty()) {
            std::fprintf(stderr, "ERROR %s: %s\n", path.c_str(),
                         error.empty() ? "empty file" : error.c_str());
            ++errors;
            continue;
        }
        for (std::size_t n = 0; n < lines.size(); ++n) {
            const SeriesReplay replay = replay_series_line(lines[n]);
            if (!replay.loaded) {
                std::fprintf(stderr, "ERROR %s:%zu: %s\n", path.c_str(), n + 1,
                             replay.error.c_str());
                ++errors;
                continue;
            }
            if (replay.mismatches == 0) {
                if (!quiet) {
                    std::printf("OK   %s:%zu: %s, %d trial%s replayed identically\n",
                                path.c_str(), n + 1, replay.name.c_str(), replay.trials,
                                replay.trials == 1 ? "" : "s");
                }
                continue;
            }
            ++divergences;
            std::printf("DIFF %s:%zu: %s, %d of %d trials diverge\n", path.c_str(), n + 1,
                        replay.name.c_str(), replay.mismatches, replay.trials);
            for (const SeriesTrialDiff& diff : replay.diffs) {
                std::printf("  seed %llu: first differing field '%s'\n",
                            static_cast<unsigned long long>(diff.seed), diff.field.c_str());
            }
        }
    }
    if (errors > 0) return 2;
    return divergences > 0 ? 1 : 0;
}

int run_pcap_diff(const std::string& trace_path, const std::string& capture_path, bool quiet) {
    namespace capture = ble::obs::capture;

    std::string error;
    const std::vector<std::string> lines = ble::obs::read_jsonl_file(trace_path, &error);
    if (lines.empty()) {
        std::fprintf(stderr, "ERROR %s: %s\n", trace_path.c_str(),
                     error.empty() ? "empty trace" : error.c_str());
        return 2;
    }
    std::string recorded;
    if (!ble::obs::read_binary_file(capture_path, recorded, &error)) {
        std::fprintf(stderr, "ERROR %s: %s\n", capture_path.c_str(), error.c_str());
        return 2;
    }

    const capture::ParsedCapture parsed = capture::parse_capture(recorded);
    if (!parsed.ok) {
        std::fprintf(stderr, "ERROR %s: %s\n", capture_path.c_str(), parsed.error.c_str());
        return 2;
    }
    // Reader fidelity first: parse + re-serialize must reproduce the file.
    if (capture::pcap_bytes(parsed.records) != recorded) {
        std::printf("DIFF %s: capture does not survive a parse/re-serialize round trip\n",
                    capture_path.c_str());
        return 1;
    }

    error.clear();
    const std::string rendered =
        capture::pcap_from_trace_lines(lines, capture::VantagePoint{}, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "ERROR %s: %s\n", trace_path.c_str(), error.c_str());
        return 2;
    }
    const std::vector<capture::CaptureRecord> records =
        capture::parse_capture(rendered).records;
    if (rendered != recorded) {
        // Name the first divergent frame, not just the first byte: record
        // diffs read much better than offsets.
        std::size_t frame = 0;
        const std::size_t common = std::min(records.size(), parsed.records.size());
        while (frame < common && records[frame] == parsed.records[frame]) ++frame;
        std::printf("DIFF %s vs %s: offline render diverges at frame %zu "
                    "(trace renders %zu frames, capture holds %zu)\n",
                    trace_path.c_str(), capture_path.c_str(), frame, records.size(),
                    parsed.records.size());
        return 1;
    }
    if (!quiet) {
        std::printf("OK   %s vs %s: %zu frames, pcap render byte-identical\n",
                    trace_path.c_str(), capture_path.c_str(), records.size());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using injectable::world::ReplayDiff;
    using injectable::world::replay_trace_file;

    bool quiet = false;
    bool stats = false;
    bool from_json = false;
    bool pcap_diff = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--diff") == 0) continue;  // the default mode
        if (std::strcmp(arg, "--stats") == 0) {
            stats = true;
            continue;
        }
        if (std::strcmp(arg, "--from-json") == 0) {
            from_json = true;
            continue;
        }
        if (std::strcmp(arg, "--pcap-diff") == 0) {
            pcap_diff = true;
            continue;
        }
        if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
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
        paths.emplace_back(arg);
    }
    if (paths.empty()) {
        print_usage(argv[0]);
        return 2;
    }
    if (pcap_diff) {
        if (paths.size() != 2) {
            std::fprintf(stderr, "%s: --pcap-diff takes exactly one trace and one capture\n",
                         argv[0]);
            print_usage(argv[0]);
            return 2;
        }
        return run_pcap_diff(paths[0], paths[1], quiet);
    }
    if (stats) return run_stats(paths, quiet);
    if (from_json) return run_from_json(paths, quiet);

    int divergences = 0;
    int errors = 0;
    for (const std::string& path : paths) {
        const ReplayDiff diff = replay_trace_file(path);
        if (!diff.loaded) {
            std::fprintf(stderr, "ERROR %s: %s\n", path.c_str(), diff.error.c_str());
            ++errors;
            continue;
        }
        if (diff.identical) {
            if (!quiet) {
                std::printf("OK   %s: seed %llu, %zu events replayed identically\n",
                            path.c_str(), static_cast<unsigned long long>(diff.seed),
                            diff.recorded_events);
            }
            continue;
        }
        ++divergences;
        std::printf("DIFF %s: seed %llu diverges at event %zu (recorded %zu, replayed %zu)\n",
                    path.c_str(), static_cast<unsigned long long>(diff.seed),
                    diff.first_divergence, diff.recorded_events, diff.replayed_events);
        std::printf("  recorded: %s\n",
                    diff.recorded_line.empty() ? "<stream ended>" : diff.recorded_line.c_str());
        std::printf("  replayed: %s\n",
                    diff.replayed_line.empty() ? "<stream ended>" : diff.replayed_line.c_str());
    }
    if (errors > 0) return 2;
    return divergences > 0 ? 1 : 0;
}
