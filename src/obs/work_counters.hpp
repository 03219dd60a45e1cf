// Work counters: how often a trial ran each of the simulator's hot sites.
//
// Five call counts and one gauge, taken per trial: scheduler dispatches,
// medium deliveries, CSA#1/#2 hops, link frame processing, and the
// scheduler's queue depth at each dispatch.  They are deterministic work
// measures (a pure function of (config, seed)), so they merge like every
// other metric, bit-identically for any BENCH_JOBS.  The end-to-end benchmark
// (perfbench --trace) divides them by trials to report work per trial next to
// wall time.
//
// A Counters table is per-trial and single-threaded: run_series installs one
// on the worker thread for the whole trial (every setup retry included), and
// each site bumps it after one thread-local null test.  Nothing is counted
// when no table is installed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace ble::obs::work {

enum class Site : std::uint8_t {
    kSimDispatch,       ///< one scheduler event fired
    kMediumDeliver,     ///< one frame's capture lottery at one locked receiver
    kCsa1Hop,           ///< one CSA#1 channel computation
    kCsa2Hop,           ///< one CSA#2 channel computation
    kConnProcessFrame,  ///< one received data PDU through link::Connection
};
inline constexpr std::size_t kSites = 5;

/// Exported as `prof.span.<name>.count` (and the gauge as
/// `prof.gauge.sim.sched.queue_depth`): names kept stable because recorded
/// campaigns and perfbench read them.
inline constexpr std::array<std::string_view, kSites> kSiteNames = {
    "sim.dispatch", "medium.deliver", "link.csa1.hop", "link.csa2.hop",
    "link.conn.process_frame"};

class Counters {
public:
    void count(Site site) noexcept { ++counts_[static_cast<std::size_t>(site)]; }
    void dispatch(std::size_t queue_depth) noexcept {
        count(Site::kSimDispatch);
        queue_depth_.record(static_cast<std::int64_t>(queue_depth));
    }

    /// Adds every nonzero count, and the queue-depth gauge once sampled, to
    /// `registry`.
    void export_metrics(MetricsRegistry& registry) const {
        for (std::size_t i = 0; i < kSites; ++i) {
            if (counts_[i] == 0) continue;
            registry.counter("prof.span." + std::string(kSiteNames[i]) + ".count")
                .add(counts_[i]);
        }
        if (queue_depth_.samples > 0) {
            registry.gauge("prof.gauge.sim.sched.queue_depth").merge(queue_depth_);
        }
    }

private:
    std::array<std::uint64_t, kSites> counts_{};
    GaugeSnapshot queue_depth_;
};

namespace detail {
inline thread_local Counters* t_current = nullptr;
}  // namespace detail

inline void count(Site site) noexcept {
    if (Counters* c = detail::t_current) c->count(site);
}

/// The scheduler's per-dispatch hook: one count plus one queue-depth sample.
inline void count_dispatch(std::size_t queue_depth) noexcept {
    if (Counters* c = detail::t_current) c->dispatch(queue_depth);
}

/// RAII install/restore of the calling thread's table (null counts nothing).
class Install {
public:
    explicit Install(Counters* counters) noexcept : prev_(detail::t_current) {
        detail::t_current = counters;
    }
    ~Install() { detail::t_current = prev_; }
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

private:
    Counters* prev_;
};

}  // namespace ble::obs::work
