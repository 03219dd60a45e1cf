// pcap_export: render recorded traces into PCAP capture files.
//
// Every JSONL trace written by run_series (INJECTABLE_TRACE_DIR) carries the
// full TxStart/RxDecision stream, which is everything the capture subsystem
// (src/obs/capture, DESIGN.md §14) consumes — so captures never have to be
// decided at record time.  This tool re-renders them offline, bit-identical
// to what a live CaptureSink at the same vantage would have written:
//
//   pcap_export [options] <trace.jsonl>...
//       render each trace into a .pcap file next to it (or under
//       --out-dir), at the chosen vantage.
//
//   pcap_export --from-json [options] <results.jsonl>...
//       re-run every series recorded in INJECTABLE_JSON files (config + seed
//       list from each line's meta, exactly like trace_replay --from-json)
//       with the capture channel enabled, and write the per-trial capture of
//       every trial — no stored traces needed.  Omniscient vantage only.
//
// Options:
//   --vantage omniscient|<device>
//                            omniscient = every frame on the medium (default);
//                            any other value names a device whose radio's
//                            sync verdicts gate what the capture contains
//   --out FILE               exact output path (single input, trace mode)
//   --out-dir DIR            output directory (default: alongside each input,
//                            or "." for --from-json)
//   --quiet                  suppress per-file OK lines
//
// Exit codes: 0 all inputs exported, 2 on usage / I/O / malformed input.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "obs/capture/capture.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"
#include "world/replay.hpp"
#include "world/result_sink.hpp"

namespace {

namespace capture = ble::obs::capture;
namespace world = injectable::world;

struct Options {
    capture::VantagePoint vantage;  // omniscient by default
    bool from_json = false;
    bool quiet = false;
    std::string out_path;
    std::string out_dir;
    std::vector<std::string> inputs;
};

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [options] <trace.jsonl>...\n"
                 "       %s --from-json [options] <results.jsonl>...\n"
                 "  --vantage omniscient|<device>\n"
                 "                          capture vantage point (default omniscient)\n"
                 "  --out FILE              exact output path (single trace input)\n"
                 "  --out-dir DIR           output directory\n"
                 "  --from-json             re-run recorded series and export every\n"
                 "                          trial's capture (omniscient vantage only)\n"
                 "  --quiet                 suppress per-file OK lines\n",
                 argv0, argv0);
}

bool parse_options(int argc, char** argv, Options& options) {
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto value_of = [&](std::string& slot) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: option '%s' needs a value\n", argv[0], arg);
                return false;
            }
            slot = argv[++i];
            return true;
        };
        if (std::strcmp(arg, "--vantage") == 0) {
            std::string value;
            if (!value_of(value)) return false;
            if (value == "omniscient") {
                options.vantage = capture::VantagePoint{};
            } else {
                options.vantage.kind = capture::VantageKind::kDevice;
                options.vantage.device = value;
            }
        } else if (std::strcmp(arg, "--out") == 0) {
            if (!value_of(options.out_path)) return false;
        } else if (std::strcmp(arg, "--out-dir") == 0) {
            if (!value_of(options.out_dir)) return false;
        } else if (std::strcmp(arg, "--from-json") == 0) {
            options.from_json = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            options.quiet = true;
        } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage(argv[0]);
            std::exit(0);
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            return false;
        } else {
            options.inputs.emplace_back(arg);
        }
    }
    if (options.inputs.empty()) return false;
    if (!options.out_path.empty() && (options.inputs.size() != 1 || options.from_json)) {
        std::fprintf(stderr, "%s: --out needs exactly one trace input\n", argv[0]);
        return false;
    }
    if (options.from_json && options.vantage.kind != capture::VantageKind::kOmniscient) {
        std::fprintf(stderr, "%s: --from-json re-runs emit omniscient captures only\n", argv[0]);
        return false;
    }
    if (!options.out_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.out_dir, ec);
        if (ec) {
            std::fprintf(stderr, "%s: cannot create %s: %s\n", argv[0], options.out_dir.c_str(),
                         ec.message().c_str());
            return false;
        }
    }
    return true;
}

/// "<dir>/exp1-seed1003.jsonl" -> "exp1-seed1003" (extension-stripped stem).
std::string trace_stem(const std::string& path) {
    constexpr std::string_view kSuffix = ".jsonl";
    const std::size_t slash = path.find_last_of('/');
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    if (stem.size() > kSuffix.size() && stem.ends_with(kSuffix)) {
        stem.resize(stem.size() - kSuffix.size());
    }
    return stem;
}

std::string output_path(const Options& options, const std::string& input) {
    if (!options.out_path.empty()) return options.out_path;
    std::string dir = options.out_dir;
    if (dir.empty()) {
        const std::size_t slash = input.find_last_of('/');
        dir = slash == std::string::npos ? "." : input.substr(0, slash);
    }
    std::string name = trace_stem(input);
    // A device capture is a different view of the same trial; the device name
    // in the file keeps it from clobbering the omniscient one.
    if (options.vantage.kind == capture::VantageKind::kDevice) {
        name += "." + options.vantage.device;
    }
    name += ".pcap";
    return dir + "/" + name;
}

int run_traces(const Options& options, const char* argv0) {
    int errors = 0;
    for (const std::string& input : options.inputs) {
        std::string error;
        const std::vector<std::string> lines = ble::obs::read_jsonl_file(input, &error);
        if (lines.empty()) {
            std::fprintf(stderr, "ERROR %s: %s\n", input.c_str(),
                         error.empty() ? "empty trace" : error.c_str());
            ++errors;
            continue;
        }
        error.clear();
        const std::string pcap = capture::pcap_from_trace_lines(lines, options.vantage, &error);
        if (!error.empty()) {
            std::fprintf(stderr, "ERROR %s: %s\n", input.c_str(), error.c_str());
            ++errors;
            continue;
        }
        const std::size_t frames = capture::parse_capture(pcap).records.size();
        const std::string out = output_path(options, input);
        if (!ble::obs::write_text_file(out, pcap)) {
            std::fprintf(stderr, "ERROR %s: cannot write %s\n", argv0, out.c_str());
            ++errors;
            continue;
        }
        if (!options.quiet) {
            std::printf("OK   %s: %zu frame%s -> %s\n", input.c_str(), frames,
                        frames == 1 ? "" : "s", out.c_str());
        }
    }
    return errors > 0 ? 2 : 0;
}

// --from-json: re-run each recorded series with a PathsResultSink whose only
// channel is the capture directory, so every trial's capture is written the
// way INJECTABLE_PCAP_DIR writes it during the campaign.
int run_from_json(const Options& options) {
    world::SinkPaths paths;
    paths.pcap_dir = options.out_dir.empty() ? "." : options.out_dir;
    world::PathsResultSink sink(paths);
    int errors = 0;
    for (const std::string& input : options.inputs) {
        std::string error;
        const std::vector<std::string> lines = ble::obs::read_jsonl_file(input, &error);
        if (lines.empty()) {
            std::fprintf(stderr, "ERROR %s: %s\n", input.c_str(),
                         error.empty() ? "empty file" : error.c_str());
            ++errors;
            continue;
        }
        for (std::size_t n = 0; n < lines.size(); ++n) {
            auto fail = [&](const std::string& message) {
                std::fprintf(stderr, "ERROR %s:%zu: %s\n", input.c_str(), n + 1,
                             message.c_str());
                ++errors;
            };
            const ble::json::ParseResult parsed = ble::json::parse(lines[n]);
            if (!parsed.ok || !parsed.value.is_object()) {
                fail("series line parse error");
                continue;
            }
            const ble::json::Value* meta = parsed.value.find("meta");
            if (meta == nullptr || !meta->is_object()) {
                fail("record has no \"meta\" object");
                continue;
            }
            world::TraceMeta trace_meta = world::parse_trace_meta(*meta);
            if (!trace_meta.valid) {
                fail(trace_meta.error);
                continue;
            }
            const ble::json::Value* trials = parsed.value.find("trials");
            if (trials == nullptr || !trials->is_array() || trials->array.empty()) {
                fail("record has no \"trials\" array");
                continue;
            }
            world::ExperimentConfig config = std::move(trace_meta.config);
            // Trial seeds are base_seed + index, so re-running the recorded
            // trial count reproduces exactly the recorded seed list.
            config.runs = static_cast<int>(trials->array.size());
            std::vector<world::RunResult> results;
            try {
                results = world::run_series(config, sink);
            } catch (const std::runtime_error& e) {  // the sink's "cannot write <path>"
                fail(e.what());
                continue;
            }
            if (!options.quiet) {
                std::printf("OK   %s:%zu: %s, %zu trial capture%s -> %s\n", input.c_str(),
                            n + 1, config.name.c_str(), results.size(),
                            results.size() == 1 ? "" : "s", paths.pcap_dir.c_str());
            }
        }
    }
    return errors > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parse_options(argc, argv, options)) {
        print_usage(argv[0]);
        return 2;
    }
    if (options.from_json) return run_from_json(options);
    return run_traces(options, argv[0]);
}
