#include "world/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "att/att_pdu.hpp"
#include "common/json.hpp"
#include "gatt/profiles.hpp"
#include "host/l2cap.hpp"
#include "link/trace.hpp"
#include "obs/capture/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/work_counters.hpp"
#include "world/replay.hpp"

namespace injectable::world {

using namespace ble;

std::string sanitize_experiment_name(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        if (!ok) c = '-';
    }
    if (out.empty()) out = "experiment";
    return out;
}

namespace {

/// The observable injected payload, written into `out` in place: an L2CAP
/// frame on the ATT channel carrying a Write Command that sets the bulb's
/// colour, its value padded with `pad` zero bytes.  The same bytes as
/// att_over_l2cap(att::make_write_cmd(handle, LightbulbProfile::cmd_set_color(
/// r, g, b, pad))), without their three intermediate buffers.
void write_set_color_payload(Bytes& out, std::uint16_t handle, std::uint8_t r, std::uint8_t g,
                             std::uint8_t b, std::size_t pad) {
    ByteWriter w(std::move(out));
    w.write_u16(static_cast<std::uint16_t>(3 + 4 + pad));  // L2CAP length: the ATT PDU
    w.write_u16(host::kAttCid);
    w.write_u8(static_cast<std::uint8_t>(att::Opcode::kWriteCmd));
    w.write_u16(handle);
    w.write_u8(gatt::LightbulbProfile::kSetColor);
    w.write_u8(r);
    w.write_u8(g);
    w.write_u8(b);
    out = w.take();
    out.resize(out.size() + pad, 0x00);
}

/// What a trial's hooks write to; each hook captures one pointer to it, so
/// the hooks fit std::function's inline storage.
struct TrialState {
    World& w;
    RunResult& result;
    bool observable = false;
    int commands_seen = 0;
    std::optional<bool> outcome;
};

}  // namespace

RunResult run_injection_experiment(World& w, const ExperimentConfig& config,
                                   std::uint64_t seed) {
    RunResult result;
    result.seed = seed;
    if (config.per_trial_sinks) config.per_trial_sinks(w.bus(), seed);
    w.emit_phase("trial-start");

    // Phase 1: sniff the CONNECT_REQ while the connection establishes.
    w.establish_and_sniff(10_s);
    result.established = w.central->connected() && w.peripheral->connected();
    result.sniffed = w.sniffed.has_value();
    if (!result.established || !result.sniffed) return result;

    if (config.world.encrypt_link && !w.encrypt()) return result;  // setup failure

    // Background host traffic (GATT reads/writes) so master frames carry
    // real payloads instead of empty polls, like the paper's testbed.
    w.start_traffic();

    // Phase 2: synchronise and inject.
    AttackSession& session = w.session;
    session.restart(*w.sniffed, config.world.attack);
    session.on_connection_lost = [&result] { result.session_lost = true; };
    w.peripheral->on_disconnected = [&result](link::DisconnectReason) {
        result.victim_disconnected = true;
    };
    w.central->on_disconnected = [&result](link::DisconnectReason) {
        result.victim_disconnected = true;
    };
    session.start();
    w.scheduler.run_until(w.scheduler.now() +
                          8 * connection_interval(config.world.hop_interval));

    AttackSession::InjectionRequest& request = w.injection;
    Bytes& payload = request.payload;
    if (config.payload_override) {
        payload.assign(config.payload_override->begin(), config.payload_override->end());
    } else if (config.ll_payload_size >= 11) {
        // Observable frame: a Write Command driving the bulb, padded to the
        // requested LL payload size — gives ground truth for the heuristic.
        // The colour is drawn blue, green, red: the draw order every pinned
        // trace and digest records.
        const auto b = static_cast<std::uint8_t>(w.rng.next_below(256));
        const auto g = static_cast<std::uint8_t>(w.rng.next_below(256));
        const auto r = static_cast<std::uint8_t>(w.rng.next_below(256));
        write_set_color_payload(payload, w.bulb.control_handle(), r, g, b,
                                config.ll_payload_size - 11);
    } else {
        // Too short for an ATT request: raw LL data (still exercises the
        // full race + heuristic; the slave LL-acks and the host discards).
        payload.resize(config.ll_payload_size);
        for (auto& byte : payload) byte = static_cast<std::uint8_t>(w.rng.next_below(256));
    }

    TrialState trial{w, result, !config.payload_override && config.ll_payload_size >= 11,
                     w.bulb.state().commands_received, std::nullopt};
    session.on_attempt = [&trial](const AttemptReport& report) {
        RunResult& result = trial.result;
        World& w = trial.w;
        result.attempts = report.attempt;  // progress even if the budget cuts us off
        bool accepted = false;
        if (trial.observable) {
            accepted = w.bulb.state().commands_received > trial.commands_seen;
            trial.commands_seen = w.bulb.state().commands_received;
            if (report.verdict.success() && !accepted) ++result.heuristic_false_positives;
            if (!report.verdict.success() && accepted) ++result.heuristic_false_negatives;
        }
        if (w.bus().active()) {
            obs::InjectionAttempt event;
            event.time = w.scheduler.now();
            event.attempt = report.attempt;
            event.event_counter = report.event_counter;
            event.channel = report.channel;
            event.heuristic_success = report.verdict.success();
            event.ground_truth_known = trial.observable;
            event.accepted_by_slave = accepted;
            event.report = &report;
            w.bus().emit(event);
        }
    };

    request.llid = config.llid;
    request.max_attempts = config.max_attempts;
    request.done = [&trial](bool ok, int attempts) {
        trial.outcome = ok;
        trial.result.attempts = attempts;
    };
    w.emit_phase("inject");
    session.inject(request);

    // Worst case: ~2 events per attempt plus resync overhead.
    const Duration budget = connection_interval(config.world.hop_interval) *
                            (4 * config.max_attempts + 64);
    w.run_until(budget, [&trial] { return trial.outcome.has_value(); });
    w.stop_traffic();
    result.success = trial.outcome.value_or(false);
    char done_detail[48];
    std::snprintf(done_detail, sizeof(done_detail), "success=%d attempts=%d",
                  result.success ? 1 : 0, result.attempts);
    w.emit_phase("done", done_detail);
    return result;
}

RunResult run_injection_experiment_with_retry(World& w, const ExperimentConfig& config,
                                              std::uint64_t seed, int tries) {
    RunResult result;
    for (int t = 0; t < tries; ++t) {
        const std::uint64_t try_seed = seed + 7919u * static_cast<std::uint64_t>(t);
        if (t > 0) w.restart(try_seed);
        result = run_injection_experiment(w, config, try_seed);
        // A missed CONNECT_REQ or failed pairing is an experiment-setup
        // failure, not an attack outcome: the paper's operator re-runs the
        // connection. Attack failures (lost sync, exhausted attempts) stand.
        if (result.established && result.sniffed) break;
    }
    result.seed = seed;  // the reproducing seed is the trial's base seed
    return result;
}

namespace {

/// One worker's observation channels, reused by every trial it runs: the
/// trace and capture buffers and the metric cells keep their storage, so a
/// trial pays for its channels only where it outgrows the worker's longest
/// trial so far.  A trial's bytes never depend on what ran before it: each
/// world restarts every sink it attaches (restart(), clear(), set_header()).
struct TrialChannels {
    TrialChannels(const ExperimentConfig& series, const ResultChannels& ch, bool want_metrics,
                  const MetaHeader& meta)
        : config(series), metrics(registry) {
        // Each setup retry restarts the world (and empties its bus): restart
        // every sink so they hold exactly the surviving world's events.
        config.per_trial_sinks = [this, &series, &ch, want_metrics, &meta](
                                     obs::EventBus& bus, std::uint64_t seed) {
            if (ch.traces) {
                meta.write(header, base_seed);
                trace.clear();
                trace.set_header(header);
                bus.attach(trace);
            }
            if (want_metrics) {
                metrics.restart();
                bus.attach(metrics);
            }
            if (ch.captures) {
                capture.builder().clear();
                bus.attach(capture);
            }
            if (series.per_trial_sinks) series.per_trial_sinks(bus, seed);
        };
    }
    TrialChannels(const TrialChannels&) = delete;
    TrialChannels& operator=(const TrialChannels&) = delete;

    ExperimentConfig config;  ///< the series' config, its sinks attached here
    std::uint64_t base_seed = 0;  ///< the running trial's
    std::string header;
    obs::JsonlTraceSink trace{link::append_frame_description};
    obs::MetricsRegistry registry;
    obs::MetricsSink metrics;
    obs::capture::CaptureSink capture;
    TrialArtifact artifact;
};

/// One worker's state for a series: its World, built on the worker's first
/// trial and restarted for every later one, and its observation channels
/// (null when the series is not instrumented).
struct Worker {
    std::unique_ptr<World> world;
    std::unique_ptr<TrialChannels> channels;
};

}  // namespace

std::vector<RunResult> run_series(const ExperimentConfig& config, ResultSink& sink) {
    const ResultChannels& ch = sink.channels();
    const int runs = std::max(config.runs, 0);

    const bool want_metrics = ch.metrics || static_cast<bool>(config.on_series_metrics);
    // The work counters' only destination is the merged metrics snapshot.
    const bool want_counts = ch.profile && want_metrics;
    const bool instrumented = ch.traces || want_metrics || ch.captures;
    const MetaHeader meta =
        ch.traces ? experiment_meta_header(config, kSetupRetries) : MetaHeader{};
    const std::string stem_prefix = sanitize_experiment_name(config.name) + "-seed";

    // Per-trial metric snapshots, stored by index like the results: merging
    // them in trial-index order afterwards is deterministic for any worker
    // count.
    std::vector<obs::MetricsSnapshot> metric_snapshots(
        want_metrics ? static_cast<std::size_t>(runs) : 0);

    TrialRunner runner(config.jobs);
    std::atomic<int> finished{0};
    const auto make_worker = [&] {
        Worker worker;
        if (instrumented) {
            worker.channels = std::make_unique<TrialChannels>(config, ch, want_metrics, meta);
        }
        return worker;
    };
    auto results = runner.map_with(runs, make_worker, [&](int i, Worker& worker) {
        // RunResult::wall_ms is documented non-deterministic and excluded
        // from every comparison, so the host clock is fine here; sinks that
        // need byte-stable records turn the channel off.
        std::chrono::steady_clock::time_point t0{};
        if (ch.wall_clock) t0 = std::chrono::steady_clock::now();
        const auto base_seed = config.base_seed + static_cast<std::uint64_t>(i);
        TrialChannels* channels = worker.channels.get();
        if (channels) channels->base_seed = base_seed;

        obs::work::Counters counts;
        RunResult result;
        {
            // Install covers the whole trial (world restart and all setup
            // retries) on this worker thread; a null table counts nothing.
            const obs::work::Install install(want_counts ? &counts : nullptr);
            if (worker.world) {
                worker.world->restart(base_seed);
            } else {
                worker.world = std::make_unique<World>(config.world, base_seed);
            }
            result = run_injection_experiment_with_retry(
                *worker.world, channels ? channels->config : config, base_seed, kSetupRetries);
        }
        if (ch.wall_clock) {
            result.wall_ms =
                std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
        }
        if (ch.progress) sink.on_progress(config.name, ++finished, runs);
        if (!channels) return result;
        if (want_metrics) {
            channels->metrics.finalize();
            if (want_counts) counts.export_metrics(channels->registry);
            metric_snapshots[static_cast<std::size_t>(i)] = channels->registry.snapshot();
        }
        // Each artifact's bytes are moved in and, once the sink has seen
        // them, handed back to the channel that wrote them.
        TrialArtifact& artifact = channels->artifact;
        artifact.stem.assign(stem_prefix);
        json::append_u64(artifact.stem, result.seed);
        artifact.seed = result.seed;
        if (ch.traces && (ch.trace_all || !result.success)) {
            artifact.kind = ArtifactKind::kEventTrace;
            artifact.content = channels->trace.take();
            sink.on_artifact(artifact);
            channels->trace.reuse(std::move(artifact.content));
        }
        if (ch.captures) {
            obs::capture::CaptureBuilder& capture = channels->capture.builder();
            artifact.kind = ArtifactKind::kPcapCapture;
            artifact.content = capture.take();
            sink.on_artifact(artifact);
            capture.reuse(std::move(artifact.content));
        }
        return result;
    });

    obs::MetricsSnapshot series_metrics;
    if (want_metrics) {
        for (const auto& snapshot : metric_snapshots) series_metrics.merge(snapshot);
        if (config.on_series_metrics) config.on_series_metrics(series_metrics);
    }
    if (ch.series_record) {
        sink.on_series_record(config, SeriesSlice{0, runs}, results,
                              want_metrics ? &series_metrics : nullptr);
    }
    return results;
}

std::vector<RunResult> run_series(const ExperimentConfig& config) {
    // The classic flow is now just edge wiring: environment variables become
    // a PathsResultSink (and a run-count override) right here, and the core
    // above never touches the environment.
    ExperimentConfig effective = config;
    effective.runs = env_runs_override(config.runs);
    PathsResultSink sink(sink_paths_from_env());
    return run_series(effective, sink);
}

namespace {

/// Appends one trial object — the element format of to_json()'s "trials"
/// array.
void append_run_result_json(std::string& out, const RunResult& r) {
    // wall_ms formats like `ostream << double` (%g, precision 6) so the
    // record bytes match every previously written series record.
    char wall[40];
    std::snprintf(wall, sizeof(wall), "%g", r.wall_ms);
    out += "{\"seed\":";
    json::append_u64(out, r.seed);
    json::append_bool(out, "success", r.success);
    json::append_int(out, "attempts", r.attempts);
    json::append_bool(out, "established", r.established);
    json::append_bool(out, "sniffed", r.sniffed);
    json::append_bool(out, "session_lost", r.session_lost);
    json::append_bool(out, "victim_disconnected", r.victim_disconnected);
    json::append_int(out, "heuristic_fp", r.heuristic_false_positives);
    json::append_int(out, "heuristic_fn", r.heuristic_false_negatives);
    out += ",\"wall_ms\":";
    out += wall;
    out += '}';
}

}  // namespace

std::string to_json(const ExperimentConfig& config, const std::vector<RunResult>& results,
                    const ble::obs::MetricsSnapshot* metrics) {
    std::ostringstream os;
    // Experiment names are free-form (and end up in shared JSONL files):
    // escape them like every other observability string.
    os << "{\"experiment\":\"" << json::escape(config.name)
       << "\",\"base_seed\":" << config.base_seed
       << ",\"runs\":" << results.size() << ",\"jobs\":" << resolve_jobs(config.jobs)
       << ",\"hop_interval\":" << config.world.hop_interval
       // The same self-describing meta object that heads every trace file:
       // lets `trace_replay --from-json` re-run the series from this record
       // alone (config + seed list, no stored traces needed).
       << ",\"meta\":" << experiment_meta_json(config, config.base_seed, kSetupRetries)
       << ",\"trials\":[";
    std::string trial;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i) os << ',';
        trial.clear();
        append_run_result_json(trial, results[i]);
        os << trial;
    }
    os << "]";
    if (metrics != nullptr) os << ",\"metrics\":" << metrics->to_json();
    os << "}";
    return os.str();
}

RunResult run_result_from_json(const json::Value& trial) {
    RunResult r;
    r.seed = trial.u64("seed");
    r.success = trial.boolean_at("success");
    r.attempts = static_cast<int>(trial.i64("attempts"));
    r.established = trial.boolean_at("established");
    r.sniffed = trial.boolean_at("sniffed");
    r.session_lost = trial.boolean_at("session_lost");
    r.victim_disconnected = trial.boolean_at("victim_disconnected");
    r.heuristic_false_positives = static_cast<int>(trial.i64("heuristic_fp"));
    r.heuristic_false_negatives = static_cast<int>(trial.i64("heuristic_fn"));
    r.wall_ms = trial.number("wall_ms");
    return r;
}

Stats summarize(const std::vector<RunResult>& results) {
    Stats stats;
    std::vector<double> attempts;
    // Summed as an integer, so no order of the trials can change the mean.
    std::int64_t sum = 0;
    for (const auto& r : results) {
        ++stats.n;
        if (r.success) {
            ++stats.successes;
            attempts.push_back(static_cast<double>(r.attempts));
            sum += r.attempts;
        }
    }
    if (attempts.empty()) return stats;
    std::sort(attempts.begin(), attempts.end());
    auto quantile = [&](double q) {
        const double idx = q * static_cast<double>(attempts.size() - 1);
        const auto lo = static_cast<std::size_t>(idx);
        const std::size_t hi = std::min(lo + 1, attempts.size() - 1);
        const double frac = idx - static_cast<double>(lo);
        return attempts[lo] * (1.0 - frac) + attempts[hi] * frac;
    };
    stats.min = attempts.front();
    stats.q1 = quantile(0.25);
    stats.median = quantile(0.5);
    stats.q3 = quantile(0.75);
    stats.max = attempts.back();
    stats.mean = static_cast<double>(sum) / static_cast<double>(attempts.size());
    return stats;
}

void print_stats_header(const std::string& variable) {
    std::printf("%-18s %8s %6s %6s %7s %6s %6s %7s\n", variable.c_str(), "success",
                "min", "Q1", "median", "Q3", "max", "mean");
}

void print_stats_row(const std::string& label, const Stats& stats) {
    std::printf("%-18s %5d/%-2d %6.0f %6.1f %7.1f %6.1f %6.0f %7.2f\n", label.c_str(),
                stats.successes, stats.n, stats.min, stats.q1, stats.median, stats.q3,
                stats.max, stats.mean);
}

}  // namespace injectable::world
