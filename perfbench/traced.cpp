// The traced run: per-layer numbers measured from outside the program.
//
// A fixed trial set (the first `trace_series` series of the seed's stream)
// runs four times, alternately untraced and traced.  A traced pass adds a
// benchmark-owned bus subscriber (installed through
// ExperimentConfig::per_trial_sinks) and the metrics and profile channels.
// The subscriber stamps the TrialPhase markers with the host clock, giving
// per-trial spans trial -> establish, sync, inject (run_injection_experiment
// emits no "sync" marker, so sync runs from "establish" to "inject"; World
// construction happens before the subscriber attaches and is timed by direct
// World(spec, seed) calls).  Work counts come from the merged MetricsSnapshot
// (.count counters and the queue-depth gauge only) and from the subscriber's
// own byte counts.
//
// Integrity: every pass must return the same RunResults, and both traced
// passes identical counts.  The first traced pass also records the frames,
// CONNECT_REQ parameters and RSSI/noise values that the pure-layer kernels
// are then replayed on (phy::crc24, phy::whiten, Csa1/Csa2, CaptureModel).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "harness.hpp"
#include "link/adv_pdu.hpp"
#include "link/channel_selection.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"
#include "phy/whitening.hpp"
#include "sim/capture.hpp"
#include "world/world.hpp"

namespace perfbench {

namespace {

using ble::obs::Event;

constexpr std::size_t kMaxFrames = 50000;
constexpr std::size_t kMaxRx = 200000;
constexpr std::size_t kMaxConns = 64;
constexpr int kCsaHops = 4096;
constexpr int kKernelReps = 9;

struct TxFrame {
    std::uint8_t channel = 0;
    ble::Bytes body;  ///< PDU + CRC: what whitening covers
    std::size_t pdu_len = 0;
    std::uint32_t crc_init = 0;  ///< recovered with crc24_reverse
    std::uint32_t crc = 0;
};

struct RxSample {
    double rssi_dbm = 0.0;
    double noise_dbm = 0.0;
    std::uint32_t bytes = 0;
};

/// Host-clock stamps (ns) of one world's TrialPhase markers; -1 = absent.
struct WorldRecord {
    std::uint64_t seed = 0;
    std::int64_t start = -1;
    std::int64_t establish = -1;
    std::int64_t inject = -1;
    std::int64_t done = -1;
    ble::TimePoint sim_start = 0;
};

/// One trial's spans, in host µs.
struct TrialSpans {
    std::uint64_t seed = 0;
    int worlds = 0;
    double trial_us = 0.0;
    double establish_us = 0.0;
    double sync_us = 0.0;
    double inject_us = 0.0;
};

/// Deterministic counts the subscriber adds up over a pass.
struct Counts {
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_decisions = 0;
    std::uint64_t rx_bytes = 0;   ///< bytes through the capture lottery
    std::uint64_t crc_bytes = 0;  ///< PDU bytes CRC'd: every TX plus every synced RX
    std::uint64_t sim_ns = 0;     ///< simulated trial-start -> done
    friend bool operator==(const Counts&, const Counts&) = default;
};

class Tracer {
public:
    explicit Tracer(bool record) : record_(record) {}

    /// Called through per_trial_sinks for every world (setup retries too).
    void attach(ble::obs::EventBus& bus, std::uint64_t seed) {
        worlds_.push_back(WorldRecord{});
        worlds_.back().seed = seed;
        tx_sizes_.clear();
        // The bus dies with its world; `this` outlives every world of the pass.
        (void)bus.subscribe([this](const Event& event) { on_event(event); });
    }

    /// Folds the worlds of a finished series into per-trial spans.
    void close_series(const std::vector<RunResult>& results) {
        for (const RunResult& r : results) {
            TrialSpans t;
            t.seed = r.seed;
            t.trial_us = r.wall_ms * 1e3;
            while (next_world_ < worlds_.size() && belongs(worlds_[next_world_].seed, r.seed)) {
                const WorldRecord& w = worlds_[next_world_++];
                ++t.worlds;
                if (w.start >= 0 && w.establish >= 0) {
                    t.establish_us += (w.establish - w.start) * 1e-3;
                }
                if (w.establish >= 0 && w.inject >= 0) {
                    t.sync_us += (w.inject - w.establish) * 1e-3;
                }
                if (w.inject >= 0 && w.done >= 0) t.inject_us += (w.done - w.inject) * 1e-3;
            }
            trials.push_back(t);
        }
    }

    Counts counts;
    std::vector<TrialSpans> trials;
    std::vector<TxFrame> frames;
    std::vector<RxSample> rx;
    std::vector<ble::link::ConnectionParams> conns;

private:
    static bool belongs(std::uint64_t world_seed, std::uint64_t trial_seed) {
        for (int t = 0; t < injectable::world::kSetupRetries; ++t) {
            if (world_seed == trial_seed + 7919u * static_cast<std::uint64_t>(t)) return true;
        }
        return false;
    }

    void on_event(const Event& event) {
        if (const auto* tx = std::get_if<ble::obs::TxStart>(&event)) {
            on_tx(*tx);
        } else if (const auto* rx_event = std::get_if<ble::obs::RxDecision>(&event)) {
            on_rx(*rx_event);
        } else if (const auto* phase = std::get_if<ble::obs::TrialPhase>(&event)) {
            on_phase(*phase);
        }
    }

    void on_phase(const ble::obs::TrialPhase& p) {
        WorldRecord& w = worlds_.back();
        const std::int64_t t = monotonic_ns();
        if (p.phase == "trial-start") {
            w.start = t;
            w.sim_start = p.time;
        } else if (p.phase == "establish") {
            w.establish = t;
        } else if (p.phase == "inject") {
            w.inject = t;
        } else if (p.phase == "done") {
            w.done = t;
            counts.sim_ns += static_cast<std::uint64_t>(p.time - w.sim_start);
        }
    }

    void on_tx(const ble::obs::TxStart& tx) {
        const auto size = static_cast<std::uint32_t>(tx.bytes.size());
        ++counts.tx_frames;
        counts.tx_bytes += size;
        if (size >= kFrameOverhead) counts.crc_bytes += size - kFrameOverhead;
        tx_sizes_[tx.tx_id] = size;
        if (!record_) return;
        const auto raw = ble::phy::split_frame(tx.bytes);
        if (!raw) return;
        if (frames.size() < kMaxFrames) {
            TxFrame f;
            f.channel = tx.channel;
            f.body.assign(tx.bytes.begin() + 4, tx.bytes.end());
            f.pdu_len = raw->pdu.size();
            f.crc = raw->crc;
            f.crc_init = ble::phy::crc24_reverse(raw->pdu, raw->crc);
            frames.push_back(std::move(f));
        }
        if (tx.channel >= 37 && conns.size() < kMaxConns) {
            const auto adv = ble::link::AdvPdu::parse(raw->pdu);
            if (adv && adv->type == ble::link::AdvPduType::kConnectReq) {
                if (const auto req = ble::link::ConnectReqPdu::parse(*adv)) {
                    conns.push_back(req->params);
                }
            }
        }
    }

    void on_rx(const ble::obs::RxDecision& decision) {
        ++counts.rx_decisions;
        const auto it = tx_sizes_.find(decision.tx_id);
        const std::uint32_t size = it == tx_sizes_.end() ? 0 : it->second;
        counts.rx_bytes += size;
        if (decision.verdict != ble::obs::RxVerdict::kLostSync && size >= kFrameOverhead) {
            counts.crc_bytes += size - kFrameOverhead;
        }
        if (record_ && rx.size() < kMaxRx) {
            rx.push_back(RxSample{decision.rssi_dbm, decision.noise_dbm, size});
        }
    }

    static constexpr std::uint32_t kFrameOverhead = 7;  // access address + CRC

    bool record_;
    std::vector<WorldRecord> worlds_;
    std::size_t next_world_ = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> tx_sizes_;  // current world
};

struct Pass {
    std::vector<RunResult> results;
    double wall_ms = 0.0;  ///< sum of RunResult::wall_ms
    std::uint64_t attempts = 0;
    std::uint64_t artifact_bytes = 0;
    std::uint64_t artifact_digest = 0;
    ble::obs::MetricsSnapshot metrics;
};

Pass run_pass(const Workload& w, std::uint64_t seed, Tracer* tracer) {
    const ResultChannels channels = channels_for(w, tracer != nullptr);
    Pass pass;
    Digest artifacts;
    for (int k = 0; k < w.trace_series; ++k) {
        ExperimentConfig config = series_config(w, seed, static_cast<std::uint64_t>(k));
        if (tracer != nullptr) {
            config.per_trial_sinks = [tracer](ble::obs::EventBus& bus, std::uint64_t s) {
                tracer->attach(bus, s);
            };
            config.on_series_metrics = [&pass](const ble::obs::MetricsSnapshot& m) {
                pass.metrics.merge(m);
            };
        }
        SeriesOutcome outcome = run_counted(config, channels);
        if (tracer != nullptr) tracer->close_series(outcome.results);
        for (const RunResult& r : outcome.results) {
            pass.wall_ms += r.wall_ms;
            pass.attempts += static_cast<std::uint64_t>(r.attempts);
        }
        pass.artifact_bytes += outcome.artifact_bytes;
        artifacts.u64(outcome.artifact_digest);
        pass.results.insert(pass.results.end(), outcome.results.begin(), outcome.results.end());
    }
    pass.artifact_digest = artifacts.value();
    return pass;
}

/// Host µs to build and tear down one World of each config (mean over the
/// configs of the median over repetitions).
double world_construct_us(const Workload& w, std::uint64_t seed) {
    double sum = 0.0;
    for (std::size_t c = 0; c < w.configs.size(); ++c) {
        const auto& spec = w.configs[c].world;
        const std::uint64_t base = series_config(w, seed, c).base_seed;
        const auto t_probe = Clock::now();
        { injectable::world::World probe(spec, base); }
        const double probe_s = std::max(seconds_since(t_probe), 1e-7);
        const int count = std::clamp(static_cast<int>(0.02 / probe_s), 1, 5000);
        std::vector<double> reps;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            for (int i = 0; i < count; ++i) {
                injectable::world::World world(spec, base + static_cast<std::uint64_t>(i));
            }
            reps.push_back(seconds_since(t0) * 1e6 / count);
        }
        sum += median(reps);
    }
    return sum / static_cast<double>(w.configs.size());
}

/// Median over repetitions of (host ns of one pass of `fn`) / `units`.
template <typename Fn>
double ns_per_unit(std::uint64_t units, Fn&& fn) {
    if (units == 0) return 0.0;
    fn();  // warm
    std::vector<double> reps;
    for (int rep = 0; rep < kKernelReps; ++rep) {
        const auto t0 = Clock::now();
        fn();
        reps.push_back(seconds_since(t0) * 1e9 / static_cast<double>(units));
    }
    return median(reps);
}

struct KernelTimes {
    double crc24_ns_per_byte = 0.0;
    double whiten_ns_per_byte = 0.0;
    double csa_ns_per_hop = 0.0;
    double lottery_ns_per_byte = 0.0;
    bool crc_ok = true;  ///< every replayed CRC reproduced the recorded one
};

KernelTimes replay_kernels(const Tracer& tracer, const ble::sim::CaptureParams& capture) {
    KernelTimes k;
    std::uint64_t pdu_bytes = 0;
    std::uint64_t body_bytes = 0;
    for (const TxFrame& f : tracer.frames) {
        pdu_bytes += f.pdu_len;
        body_bytes += f.body.size();
        k.crc_ok = k.crc_ok && ble::phy::crc24(ble::BytesView(f.body.data(), f.pdu_len),
                                               f.crc_init) == f.crc;
    }

    std::uint32_t sink = 0;
    k.crc24_ns_per_byte = ns_per_unit(pdu_bytes, [&] {
        for (const TxFrame& f : tracer.frames) {
            sink ^= ble::phy::crc24(ble::BytesView(f.body.data(), f.pdu_len), f.crc_init);
        }
    });

    // Whitening works in place on copies of the recorded bodies; its cost
    // does not depend on the bytes, so repeated passes time the same work.
    std::vector<ble::Bytes> bodies;
    for (const TxFrame& f : tracer.frames) bodies.push_back(f.body);
    k.whiten_ns_per_byte = ns_per_unit(body_bytes, [&] {
        for (std::size_t i = 0; i < bodies.size(); ++i) {
            ble::phy::whiten(tracer.frames[i].channel, bodies[i]);
        }
    });

    const auto hops = static_cast<std::uint64_t>(tracer.conns.size()) * kCsaHops;
    k.csa_ns_per_hop = ns_per_unit(hops, [&] {
        for (const ble::link::ConnectionParams& p : tracer.conns) {
            std::unique_ptr<ble::link::ChannelSelector> csa;
            if (p.use_csa2) {
                csa = std::make_unique<ble::link::Csa2>(p.access_address, p.channel_map);
            } else {
                csa = std::make_unique<ble::link::Csa1>(p.hop_increment, p.channel_map);
            }
            for (int e = 0; e < kCsaHops; ++e) {
                sink += csa->channel_for_event(static_cast<std::uint16_t>(e));
            }
        }
    });

    // The per-byte capture lottery of an unjammed frame, as
    // RadioMedium::deliver runs it: corruption probability at the recorded
    // SIR, then one uniform draw.
    const ble::sim::CaptureModel model(capture);
    std::uint64_t rx_bytes = 0;
    for (const RxSample& s : tracer.rx) rx_bytes += s.bytes;
    ble::Rng rng(0x10771e);
    k.lottery_ns_per_byte = ns_per_unit(rx_bytes, [&] {
        for (const RxSample& s : tracer.rx) {
            const double sir_db = s.rssi_dbm - s.noise_dbm;
            for (std::uint32_t b = 0; b < s.bytes; ++b) {
                sink += rng.chance(model.byte_corruption_prob(sir_db, 0.5)) ? 1u : 0u;
            }
        }
    });

    volatile std::uint32_t keep = sink;
    (void)keep;
    return k;
}

std::uint64_t counter(const ble::obs::MetricsSnapshot& m, const std::string& name) {
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void write_spans(const std::string& path, const Tracer& tracer) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
        return;
    }
    for (const TrialSpans& t : tracer.trials) {
        const double children = t.establish_us + t.sync_us + t.inject_us;
        std::fprintf(f,
                     "{\"seed\":%" PRIu64 ",\"worlds\":%d,\"spans\":["
                     "{\"name\":\"trial\",\"dur_us\":%.3f,\"self_us\":%.3f},"
                     "{\"name\":\"establish\",\"parent\":\"trial\","
                     "\"dur_us\":%.3f,\"self_us\":%.3f},"
                     "{\"name\":\"sync\",\"parent\":\"trial\","
                     "\"dur_us\":%.3f,\"self_us\":%.3f},"
                     "{\"name\":\"inject\",\"parent\":\"trial\","
                     "\"dur_us\":%.3f,\"self_us\":%.3f}]}\n",
                     t.seed, t.worlds, t.trial_us, t.trial_us - children, t.establish_us,
                     t.establish_us, t.sync_us, t.sync_us, t.inject_us, t.inject_us);
    }
    std::fclose(f);
}

}  // namespace

int run_traced(const Workload& w, std::uint64_t seed, const std::string& spans_out) {
    const auto t_run = Clock::now();
    for (const ExperimentConfig& config : warmup_configs(w)) {
        (void)run_counted(config, channels_for(w, true));
    }
    const double construct_us = world_construct_us(w, seed);

    // Untraced and traced passes alternate, so warm-up and drift of the
    // host fall on both sides of obs.trace_overhead.
    const Pass plain = run_pass(w, seed, nullptr);
    Tracer first(/*record=*/true);
    const Pass traced1 = run_pass(w, seed, &first);
    const Pass plain2 = run_pass(w, seed, nullptr);
    Tracer second(/*record=*/false);
    const Pass traced2 = run_pass(w, seed, &second);

    const bool results_equal = plain2.results == plain.results &&
                               traced1.results == plain.results &&
                               traced2.results == plain.results;
    const bool counts_equal = traced1.metrics == traced2.metrics &&
                              first.counts == second.counts &&
                              traced1.artifact_digest == traced2.artifact_digest;
    const KernelTimes kernels = replay_kernels(first, w.configs.front().world.capture);
    const bool golden_ok = golden_digest(w) == w.golden_digest;
    const bool correct = results_equal && counts_equal && kernels.crc_ok && golden_ok;

    const auto trials = static_cast<double>(plain.results.size());
    const std::uint64_t failed = correct ? 0 : plain.results.size();

    const ble::obs::MetricsSnapshot& m = traced1.metrics;
    const Counts& c = first.counts;
    double establish = 0.0;
    double sync = 0.0;
    double inject = 0.0;
    double traced_wall_us = 0.0;
    for (const Tracer* t : {&first, &second}) {
        for (const TrialSpans& s : t->trials) {
            establish += s.establish_us;
            sync += s.sync_us;
            inject += s.inject_us;
            traced_wall_us += s.trial_us;
        }
    }
    const double traced_trials = 2.0 * trials;
    const double plain_wall_ms = (plain.wall_ms + plain2.wall_ms) / 2.0;
    const double plain_ns_per_trial = plain_wall_ms * 1e6 / trials;
    const double attempts_per_trial = static_cast<double>(plain.attempts) / trials;
    const double inject_us = inject / traced_trials;
    const double deliveries = static_cast<double>(counter(m, "prof.span.medium.deliver.count"));
    const double tx = static_cast<double>(counter(m, "tx_frames"));
    const double windows = static_cast<double>(counter(m, "windows_opened") +
                                               counter(m, "window_misses"));
    const auto depth = m.gauges.find("prof.gauge.sim.sched.queue_depth");
    const double crc_bytes = static_cast<double>(c.crc_bytes) / trials;
    const double rx_bytes = static_cast<double>(c.rx_bytes) / trials;

    std::vector<std::pair<std::string, double>> metrics = {
        {"world.construct_us", construct_us},
        {"world.setup_share", 1.0 - ratio(inject, traced_wall_us)},
        {"phase.establish_us", establish / traced_trials},
        {"phase.sync_us", sync / traced_trials},
        {"phase.inject_us", inject_us},
        {"core.attempts_per_trial", attempts_per_trial},
        {"core.us_per_attempt", ratio(inject_us, attempts_per_trial)},
        {"core.accept_ratio", ratio(static_cast<double>(counter(m, "injection_accepted")),
                                    static_cast<double>(counter(m, "injection_attempts")))},
        {"sim.dispatch_per_trial",
         static_cast<double>(counter(m, "prof.span.sim.dispatch.count")) / trials},
        {"sim.queue_depth_max",
         depth == m.gauges.end() ? 0.0 : static_cast<double>(depth->second.max)},
        {"sim.sim_s_per_host_s", ratio(static_cast<double>(c.sim_ns), plain_wall_ms * 1e6)},
        {"medium.tx_per_trial", tx / trials},
        {"medium.deliver_per_trial", deliveries / trials},
        {"medium.deliver_per_tx", ratio(deliveries, tx)},
        {"medium.lost_share",
         ratio(static_cast<double>(counter(m, "rx_corrupted") + counter(m, "rx_lost_sync")),
               static_cast<double>(counter(m, "rx_delivered") + counter(m, "rx_lost_sync")))},
        {"medium.rx_bytes_per_trial", rx_bytes},
        {"medium.lottery_ns_per_byte", kernels.lottery_ns_per_byte},
        {"medium.lottery_share_est",
         rx_bytes * kernels.lottery_ns_per_byte / plain_ns_per_trial},
        {"phy.tx_bytes_per_trial", static_cast<double>(c.tx_bytes) / trials},
        {"phy.crc24_ns_per_byte", kernels.crc24_ns_per_byte},
        {"phy.whiten_ns_per_byte", kernels.whiten_ns_per_byte},
        {"phy.busy_share_est", crc_bytes * kernels.crc24_ns_per_byte / plain_ns_per_trial},
        {"link.conn_events_per_trial", static_cast<double>(counter(m, "conn_events")) / trials},
        {"link.process_frame_per_trial",
         static_cast<double>(counter(m, "prof.span.link.conn.process_frame.count")) / trials},
        {"link.csa_hops_per_trial",
         static_cast<double>(counter(m, "prof.span.link.csa1.hop.count") +
                             counter(m, "prof.span.link.csa2.hop.count")) /
             trials},
        {"link.csa_ns_per_hop", kernels.csa_ns_per_hop},
        {"link.window_miss_share",
         ratio(static_cast<double>(counter(m, "window_misses")), windows)},
        {"obs.events_per_trial", static_cast<double>(counter(m, "events_total")) / trials},
        {"obs.artifact_bytes_per_trial", static_cast<double>(plain.artifact_bytes) / trials},
        {"obs.trace_overhead", ratio(traced_wall_us / 2.0, plain_wall_ms * 1e3)},
    };

    if (!spans_out.empty()) write_spans(spans_out, first);

    std::printf("traced %s seed %" PRIu64 ": %zu trials x 4 passes in %.3f s\n", w.name.c_str(),
                seed, plain.results.size(), seconds_since(t_run));
    std::printf("  traced results %s untraced; counts %s across traced passes; "
                "replayed %zu frames, %zu deliveries, %zu connections\n",
                results_equal ? "equal" : "DIFFER from", counts_equal ? "repeat" : "DIFFER",
                first.frames.size(), first.rx.size(), first.conns.size());
    for (const auto& [name, value] : metrics) {
        std::printf("  %-30s %.6g\n", name.c_str(), value);
    }

    char extra[512];
    std::snprintf(extra, sizeof(extra),
                  "\"detail\":{\"results_equal\":%s,\"counts_equal\":%s,\"golden_ok\":%s,"
                  "\"rng_u64_ns\":%.4f,\"compiler\":\"%s\",\"build_type\":\"%s\"}",
                  results_equal ? "true" : "false", counts_equal ? "true" : "false",
                  golden_ok ? "true" : "false", calibrate_rng_ns(), PERFBENCH_COMPILER,
                  PERFBENCH_BUILD_TYPE);
    print_result_line(correct, plain.results.size(), failed, metrics, extra);
    return 0;
}

}  // namespace perfbench
