#include "world/experiment.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/forge.hpp"
#include "link/trace.hpp"
#include "obs/capture/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/timeline.hpp"
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

RunResult run_injection_experiment(const ExperimentConfig& config, std::uint64_t seed) {
    RunResult result;
    result.seed = seed;
    World w(config.world, seed);
    if (config.per_trial_sinks) config.per_trial_sinks(w.bus(), seed);
    w.emit_phase("trial-start");

    // Legacy per-attempt hook, now a bus subscription (kept for the benches'
    // outcome analysis; destroyed before `w`, so it cannot dangle).
    obs::ScopedSubscription hook_sub;
    if (config.on_attempt_hook) {
        hook_sub = obs::ScopedSubscription(w.bus(), [&config](const obs::Event& event) {
            const auto* a = std::get_if<obs::InjectionAttempt>(&event);
            if (a != nullptr && a->report != nullptr) config.on_attempt_hook(*a->report);
        });
    }

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
    w.session = std::make_unique<AttackSession>(*w.attacker, *w.sniffed, config.world.attack);
    AttackSession& session = *w.session;
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

    Bytes payload;
    if (config.payload_override) {
        payload = *config.payload_override;
    } else if (config.ll_payload_size >= 11) {
        // Observable frame: a Write Command driving the bulb, padded to the
        // requested LL payload size — gives ground truth for the heuristic.
        const std::size_t pad = config.ll_payload_size - 11;
        payload = att_over_l2cap(att::make_write_cmd(
            w.bulb.control_handle(),
            gatt::LightbulbProfile::cmd_set_color(
                static_cast<std::uint8_t>(w.rng.next_below(256)),
                static_cast<std::uint8_t>(w.rng.next_below(256)),
                static_cast<std::uint8_t>(w.rng.next_below(256)), pad)));
    } else {
        // Too short for an ATT request: raw LL data (still exercises the
        // full race + heuristic; the slave LL-acks and the host discards).
        payload.resize(config.ll_payload_size);
        for (auto& b : payload) b = static_cast<std::uint8_t>(w.rng.next_below(256));
    }

    const bool observable = !config.payload_override && config.ll_payload_size >= 11;
    int commands_seen = w.bulb.state().commands_received;
    session.on_attempt = [&](const AttemptReport& report) {
        result.attempts = report.attempt;  // progress even if the budget cuts us off
        bool accepted = false;
        if (observable) {
            accepted = w.bulb.state().commands_received > commands_seen;
            commands_seen = w.bulb.state().commands_received;
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
            event.ground_truth_known = observable;
            event.accepted_by_slave = accepted;
            event.report = &report;
            w.bus().emit(event);
        }
    };

    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.llid = config.llid;
    request.payload = payload;
    request.max_attempts = config.max_attempts;
    request.done = [&](bool ok, int attempts) {
        outcome = ok;
        result.attempts = attempts;
    };
    w.emit_phase("inject");
    session.inject(std::move(request));

    // Worst case: ~2 events per attempt plus resync overhead.
    const Duration budget = connection_interval(config.world.hop_interval) *
                            (4 * config.max_attempts + 64);
    w.run_until(budget, [&] { return outcome.has_value(); });
    w.stop_traffic();
    result.success = outcome.value_or(false);
    char done_detail[48];
    std::snprintf(done_detail, sizeof(done_detail), "success=%d attempts=%d",
                  result.success ? 1 : 0, result.attempts);
    w.emit_phase("done", done_detail);
    return result;
}

RunResult run_injection_experiment_with_retry(const ExperimentConfig& config,
                                              std::uint64_t seed, int tries) {
    RunResult result;
    for (int t = 0; t < tries; ++t) {
        result = run_injection_experiment(config, seed + 7919u * static_cast<std::uint64_t>(t));
        // A missed CONNECT_REQ or failed pairing is an experiment-setup
        // failure, not an attack outcome: the paper's operator re-runs the
        // connection. Attack failures (lost sync, exhausted attempts) stand.
        if (result.established && result.sniffed) break;
    }
    result.seed = seed;  // the reproducing seed is the trial's base seed
    return result;
}

std::vector<RunResult> run_series(const ExperimentConfig& config, ResultSink& sink) {
    const ResultChannels& ch = sink.channels();
    const int runs = std::max(config.runs, 0);

    const bool want_metrics = ch.metrics || static_cast<bool>(config.on_series_metrics);
    // The work counters' only destination is the merged metrics snapshot.
    const bool want_counts = ch.profile && want_metrics;

    // Per-trial metric snapshots, stored by index like the results: merging
    // them in trial-index order afterwards is deterministic for any worker
    // count.
    std::vector<obs::MetricsSnapshot> metric_snapshots(
        want_metrics ? static_cast<std::size_t>(runs) : 0);

    TrialRunner runner(config.jobs);
    runner.set_progress_label(config.name);
    // Always installed, so the runner's environment-gated default meter never
    // engages: progress is entirely the sink's channel.
    runner.set_progress([&](int done, int total) {
        if (ch.progress) sink.on_progress(config.name, done, total);
    });
    auto results = runner.map(runs, [&](int i) {
        // RunResult::wall_ms is documented non-deterministic and excluded
        // from every comparison, so the host clock is fine here; sinks that
        // need byte-stable records turn the channel off.
        // injectable-lint: allow(D2) -- measures host wall-clock cost only
        std::chrono::steady_clock::time_point t0{};
        if (ch.wall_clock) {
            // injectable-lint: allow(D2) -- host wall-clock cost, see above.
            t0 = std::chrono::steady_clock::now();
        }
        const auto base_seed = config.base_seed + static_cast<std::uint64_t>(i);

        const ExperimentConfig* trial_config = &config;
        ExperimentConfig instrumented_config;
        std::shared_ptr<obs::JsonlTraceSink> trace;
        std::shared_ptr<obs::MetricsRegistry> registry;
        std::shared_ptr<obs::MetricsSink> metrics;
        std::shared_ptr<obs::ChannelOccupancySink> occupancy;
        std::shared_ptr<obs::capture::CaptureSink> capture;
        if (ch.traces || ch.timelines || want_metrics || ch.captures) {
            instrumented_config = config;
            // Each setup retry builds a fresh world (and bus): restart every
            // sink so they hold exactly the surviving world's events.
            instrumented_config.per_trial_sinks = [&](obs::EventBus& bus, std::uint64_t seed) {
                if (ch.traces) {
                    trace = std::make_shared<obs::JsonlTraceSink>(link::describe_frame);
                    trace->set_header(experiment_meta_json(config, base_seed, kSetupRetries));
                    bus.attach(*trace);
                }
                if (want_metrics) {
                    registry = std::make_shared<obs::MetricsRegistry>();
                    metrics = std::make_shared<obs::MetricsSink>(*registry);
                    bus.attach(*metrics);
                }
                if (ch.timelines) {
                    occupancy = std::make_shared<obs::ChannelOccupancySink>();
                    bus.attach(*occupancy);
                }
                if (ch.captures) {
                    capture = std::make_shared<obs::capture::CaptureSink>();
                    bus.attach(*capture);
                }
                if (config.per_trial_sinks) config.per_trial_sinks(bus, seed);
            };
            trial_config = &instrumented_config;
        }

        obs::work::Counters counts;
        RunResult result;
        {
            // Install covers the whole trial (all setup retries) on this
            // worker thread; a null table counts nothing.
            const obs::work::Install install(want_counts ? &counts : nullptr);
            result = run_injection_experiment_with_retry(*trial_config, base_seed, kSetupRetries);
        }
        if (ch.wall_clock) {
            result.wall_ms =
                // injectable-lint: allow(D2) -- host wall-clock cost, see above.
                std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
        }
        if (metrics) {
            metrics->finalize();
            if (want_counts) counts.export_metrics(*registry);
            metric_snapshots[static_cast<std::size_t>(i)] = registry->snapshot();
        }
        const std::string stem = sanitize_experiment_name(config.name) + "-seed" +
                                 std::to_string(result.seed);
        auto emit_artifact = [&](ArtifactKind kind, std::string content) {
            TrialArtifact artifact;
            artifact.kind = kind;
            artifact.stem = stem;
            artifact.seed = result.seed;
            artifact.success = result.success;
            artifact.content = std::move(content);
            sink.on_artifact(artifact);
        };
        if (trace && (ch.trace_all || !result.success)) {
            emit_artifact(ArtifactKind::kEventTrace, trace->str());
        }
        if (occupancy) {
            emit_artifact(ArtifactKind::kChromeTimeline, occupancy->chrome_trace_json());
        }
        if (capture) {
            emit_artifact(ArtifactKind::kPcapCapture, capture->pcap_bytes());
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
    out += "{\"seed\":" + std::to_string(r.seed);
    out += ",\"success\":";
    out += r.success ? "true" : "false";
    out += ",\"attempts\":" + std::to_string(r.attempts);
    out += ",\"established\":";
    out += r.established ? "true" : "false";
    out += ",\"sniffed\":";
    out += r.sniffed ? "true" : "false";
    out += ",\"session_lost\":";
    out += r.session_lost ? "true" : "false";
    out += ",\"victim_disconnected\":";
    out += r.victim_disconnected ? "true" : "false";
    out += ",\"heuristic_fp\":" + std::to_string(r.heuristic_false_positives);
    out += ",\"heuristic_fn\":" + std::to_string(r.heuristic_false_negatives);
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
    os << "{\"experiment\":\"" << obs::json_escape(config.name)
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

Stats summarize(const std::vector<RunResult>& results) {
    Stats stats;
    std::vector<double> attempts;
    for (const auto& r : results) {
        ++stats.n;
        if (r.success) {
            ++stats.successes;
            attempts.push_back(static_cast<double>(r.attempts));
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
    double sum = 0;
    // injectable-lint: allow(D3) -- sums `attempts` after the sort above, so the accumulation order (and the FP result) is fixed
    for (double a : attempts) sum += a;
    stats.mean = sum / static_cast<double>(attempts.size());
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
