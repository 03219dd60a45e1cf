// injectable_perfbench: the repository's end-to-end benchmark program.
//
//   injectable_perfbench --workload NAME --seed N --seconds S
//                        [--mode measure|setup|trace] [--spans-out PATH]
//
// measure: set up (one warm-up trial per config), run a prefix of the seed's
//          trial stream back to back in the workload's passes, filling S seconds
//          (every pass must repeat the first exactly), then check that the
//          workload's golden trials hash to the recorded digest.
// setup:   stop right before the first timed trial and report setup_s.
// trace:   the traced per-layer run (traced.cpp); its length is fixed by the
//          workload's trace_series, so --seconds has no effect.
//
// The last stdout line is "PERFBENCH_RESULT <json>"; run.py turns it into the
// benchmark's result line.  setup_s runs from the top of main() to the first
// timed trial.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string mode = "measure";
    std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (key == "--mode") {
            args.mode = value;
        } else if (key == "--spans-out") {
            args.spans_out = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
           (args.mode == "measure" || args.mode == "setup" || args.mode == "trace");
}

/// Nearest-rank percentile of sorted samples; `beyond` gets the number of
/// samples strictly above the chosen rank.
double percentile(const std::vector<double>& sorted, double pct, std::size_t* beyond) {
    const auto n = sorted.size();
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (beyond != nullptr) *beyond = n - rank;
    return sorted[rank - 1];
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
        }
    }
    return cpus;
}

/// Moves the calling thread to `cpu`; best effort, a refusal leaves it where it is.
void pin_to(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

int run_measure(const Workload& w, const Args& args, std::int64_t start_ns) {
    const ResultChannels channels = channels_for(w, false);
    for (const ExperimentConfig& config : warmup_configs(w)) {
        (void)run_counted(config, channels);
    }
    const double setup_s = static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
    if (args.mode == "setup") {
        print_result_line(true, 1, 0, {{"setup_s", setup_s}}, "");
        return 0;
    }

    // The timed loop.  Pass 0 runs series of the seed's stream back to back
    // until its share of the budget is spent; the later passes re-run those
    // series, which must repeat exactly.  Each series and each trial keeps
    // its fastest execution, so a burst of load from other processes on the
    // host is measured only if it hits every pass.  The passes rotate over
    // the allowed CPUs: on a shared VM a neighbour busy on one vCPU's
    // hyperthread sibling slows that vCPU alone, by up to 1.9x for minutes,
    // and an unpinned thread tends to stay on the vCPU it started on.
    const std::vector<int> cpus = allowed_cpus();
    std::vector<SeriesOutcome> series;
    std::vector<double> series_s;
    std::vector<double> pass_s(static_cast<std::size_t>(w.passes), 0.0);
    bool replay_ok = true;
    const auto t_loop = Clock::now();
    for (int pass = 0; pass < w.passes; ++pass) {
        if (!cpus.empty()) pin_to(cpus[static_cast<std::size_t>(pass) % cpus.size()]);
        for (std::uint64_t k = 0; pass == 0 || k < series.size(); ++k) {
            const auto t0 = Clock::now();
            SeriesOutcome outcome = run_counted(series_config(w, args.seed, k), channels);
            const double s = seconds_since(t0);
            pass_s[static_cast<std::size_t>(pass)] += s;
            if (pass == 0) {
                series.push_back(std::move(outcome));
                series_s.push_back(s);
                if (seconds_since(t_loop) * w.passes >= args.seconds &&
                    (k + 1) % w.configs.size() == 0) {
                    break;  // budget spent, at the end of a round
                }
                continue;
            }
            SeriesOutcome& first = series[k];
            replay_ok = replay_ok && outcome.results == first.results &&
                        outcome.artifact_digest == first.artifact_digest;
            series_s[k] = std::min(series_s[k], s);
            const std::size_t n = std::min(first.results.size(), outcome.results.size());
            for (std::size_t i = 0; i < n; ++i) {
                double& best = first.results[i].wall_ms;
                best = std::min(best, outcome.results[i].wall_ms);
            }
        }
    }
    const double loop_s = seconds_since(t_loop);

    // Rates are medians over rounds (one series of every config), which a
    // few heavy-tailed trials cannot swing the way they swing a mean.
    std::vector<double> trial_ms;
    std::vector<double> round_trials_per_s;
    std::vector<double> round_attempts_per_s;
    std::uint64_t attempts = 0;
    std::uint64_t unsuccessful = 0;
    double best_s = 0.0;
    double round_s = 0.0;
    std::uint64_t round_trials = 0;
    std::uint64_t round_attempts = 0;
    for (std::size_t k = 0; k < series.size(); ++k) {
        best_s += series_s[k];
        round_s += series_s[k];
        for (const RunResult& r : series[k].results) {
            trial_ms.push_back(r.wall_ms);
            attempts += static_cast<std::uint64_t>(r.attempts);
            ++round_trials;
            round_attempts += static_cast<std::uint64_t>(r.attempts);
            if (!r.success && ++unsuccessful <= 5) {
                std::printf("  unsuccessful attack: config %zu seed %" PRIu64
                            " attempts %d established %d sniffed %d session_lost %d "
                            "victim_disconnected %d\n",
                            static_cast<std::size_t>(k % w.configs.size()), r.seed, r.attempts,
                            r.established, r.sniffed, r.session_lost, r.victim_disconnected);
            }
        }
        if ((k + 1) % w.configs.size() == 0) {
            round_trials_per_s.push_back(static_cast<double>(round_trials) / round_s);
            round_attempts_per_s.push_back(static_cast<double>(round_attempts) / round_s);
            round_s = 0.0;
            round_trials = 0;
            round_attempts = 0;
        }
    }
    const auto trials = static_cast<std::uint64_t>(trial_ms.size());

    // The golden trials must hash to the digest recorded in the workload.
    // A run whose outcomes cannot be trusted fails as a whole: every trial
    // counts as failed (and as unsuccessful in success_share).
    const std::uint64_t golden = golden_digest(w);
    const bool golden_ok = golden == w.golden_digest;
    const bool correct = replay_ok && golden_ok;
    const std::uint64_t failed = correct ? 0 : trials;
    if (!correct) unsuccessful = trials;

    std::sort(trial_ms.begin(), trial_ms.end());
    std::size_t beyond = 0;
    const double tail = percentile(trial_ms, w.tail_percentile, &beyond);
    const double p50 = percentile(trial_ms, 50.0, nullptr);
    const double calib = calibrate_rng_ns();

    std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " trials, %" PRIu64
                " attempts (%" PRIu64 " unsuccessful); %d passes in %.3f s, fastest executions "
                "sum to %.3f s\n",
                w.name.c_str(), args.seed, trials, attempts, unsuccessful, w.passes, loop_s,
                best_s);
    for (std::size_t p = 0; p < pass_s.size(); ++p) {
        std::printf("  pass %zu on cpu %d: %.3f s\n", p,
                    cpus.empty() ? -1 : cpus[p % cpus.size()], pass_s[p]);
    }
    std::printf("  trial_ms_tail is p%g over %" PRIu64 " samples (%zu beyond it)\n",
                w.tail_percentile, trials, beyond);
    std::printf("  replay check %s; golden digest %016" PRIx64 " (recorded %016" PRIx64
                ") %s\n",
                replay_ok ? "ok" : "MISMATCH", golden, w.golden_digest,
                golden_ok ? "ok" : "MISMATCH");

    char extra[768];
    std::snprintf(extra, sizeof(extra),
                  "\"detail\":{\"tail_percentile\":%g,\"tail_samples\":%" PRIu64
                  ",\"tail_beyond\":%zu,\"unsuccessful\":%" PRIu64 ",\"passes\":%d,"
                  "\"loop_s\":%.3f,\"mean_trials_per_s\":%.4f,\"mean_attempts_per_s\":%.4f,"
                  "\"golden_digest\":\"%016" PRIx64
                  "\",\"replay_ok\":%s,\"golden_ok\":%s,\"rng_u64_ns\":%.4f,"
                  "\"compiler\":\"%s\",\"build_type\":\"%s\"}",
                  w.tail_percentile, trials, beyond, unsuccessful, w.passes, loop_s,
                  static_cast<double>(trials) / best_s, static_cast<double>(attempts) / best_s,
                  golden,
                  replay_ok ? "true" : "false", golden_ok ? "true" : "false", calib,
                  PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    const double denom = static_cast<double>(std::max<std::uint64_t>(trials, 1));
    print_result_line(correct, trials, failed,
                      {{"trials_per_s", median(round_trials_per_s)},
                       {"attempts_per_s", median(round_attempts_per_s)},
                       {"trial_ms_p50", p50},
                       {"trial_ms_tail", tail},
                       {"setup_s", setup_s},
                       {"peak_rss_mb", peak_rss_mb()},
                       {"success_share", static_cast<double>(trials - unsuccessful) / denom}},
                      extra);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t start_ns = monotonic_ns();
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: injectable_perfbench --workload NAME --seed N --seconds S "
                     "[--mode measure|setup|trace] [--spans-out PATH]\n");
        return 2;
    }
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) {
        std::string names;
        for (const std::string& name : workload_names()) names += " " + name;
        std::fprintf(stderr, "unknown workload '%s' (known:%s)\n", args.workload.c_str(),
                     names.c_str());
        return 2;
    }
    if (args.mode == "trace") return run_traced(*w, args.seed, args.spans_out);
    return run_measure(*w, args, start_ns);
}
