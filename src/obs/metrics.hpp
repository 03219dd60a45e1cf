// MetricsRegistry: deterministic, mergeable telemetry over the event stream.
//
// The paper's evaluation (§VII, Fig. 9) is statistics over observed
// Link-Layer events — attempt counts, capture outcomes, widened windows.  The
// registry turns the raw obs::EventBus stream into quantitative series:
//
//  * Counter    — monotone event count;
//  * Gauge      — last/min/max of a signed sample stream;
//  * Histogram  — fixed-bucket log2 histogram of unsigned samples (bucket b
//                 holds values with bit_width == b, so bucket 0 is {0},
//                 bucket 1 is {1}, bucket 2 is {2,3}, ... up to bucket 64).
//
// Determinism contract: a registry is single-threaded (it belongs to one
// trial's world, like the bus), every cell is plain integer arithmetic, and
// snapshots merge with commutative/associative ops for counters and
// histograms.  Gauges keep a `last` value, so TrialRunner harnesses merge
// snapshots *in trial-index order*; with that order fixed, serial and
// parallel series runs produce bit-identical merged snapshots — the same
// store-by-index trick the runner uses for results.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "obs/bus.hpp"

namespace ble::obs {

/// Number of log2 buckets: bit_width of a uint64 is 0..64.
inline constexpr int kHistogramBuckets = 65;

/// Bucket index for a sample (== std::bit_width).
[[nodiscard]] constexpr int histogram_bucket_of(std::uint64_t value) noexcept {
    return std::bit_width(value);
}
/// Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_floor(int bucket) noexcept {
    return bucket <= 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< valid iff count > 0
    std::uint64_t max = 0;  ///< valid iff count > 0
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    void record(std::uint64_t value) noexcept;
    /// Commutative: merging A into B equals merging B into A.
    void merge(const HistogramSnapshot& other) noexcept;
    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
    friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

struct GaugeSnapshot {
    std::uint64_t samples = 0;
    std::int64_t last = 0;  ///< valid iff samples > 0
    std::int64_t min = 0;
    std::int64_t max = 0;

    void record(std::int64_t value) noexcept;
    /// NOT commutative (`last` takes the right-hand side): merge in a fixed
    /// order (trial index) for deterministic aggregates.
    void merge(const GaugeSnapshot& other) noexcept;
    friend bool operator==(const GaugeSnapshot&, const GaugeSnapshot&) = default;
};

/// The full registry state: plain values in name-sorted maps, so two equal
/// snapshots serialize to byte-identical JSON.
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, GaugeSnapshot> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /// Merges `other` into this snapshot (see GaugeSnapshot::merge for the
    /// ordering caveat).
    void merge(const MetricsSnapshot& other);
    [[nodiscard]] bool empty() const noexcept {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
    /// Compact one-line JSON object; histogram buckets are sparse
    /// [bucket, count] pairs.  Deterministic: sorted keys, integer fields.
    [[nodiscard]] std::string to_json() const;
    /// Inverse of to_json(); absent sections stay empty.  A bucket index
    /// outside 0..64 returns nullopt and sets *error naming the histogram.
    [[nodiscard]] static std::optional<MetricsSnapshot> from_json(const json::Value& value,
                                                                  std::string* error = nullptr);
    friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Named metric cells.  Handles returned by counter()/gauge()/histogram()
/// stay valid for the registry's lifetime (map nodes are stable), so sinks
/// resolve names once and update through the handle on the hot path.
class MetricsRegistry {
public:
    class Counter {
    public:
        void add(std::uint64_t n = 1) noexcept { value_ += n; }
        [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

    private:
        std::uint64_t value_ = 0;
    };
    using Gauge = GaugeSnapshot;
    using Histogram = HistogramSnapshot;

    [[nodiscard]] Counter& counter(std::string_view name) { return counters_[std::string(name)]; }
    [[nodiscard]] Gauge& gauge(std::string_view name) { return gauges_[std::string(name)]; }
    [[nodiscard]] Histogram& histogram(std::string_view name) {
        return histograms_[std::string(name)];
    }

    [[nodiscard]] MetricsSnapshot snapshot() const;
    void reset() noexcept;

private:
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Prints a short human-readable digest (one line per metric) to stdout.
void print_metrics_summary(const MetricsSnapshot& snapshot, const std::string& label);

/// Receiver sensitivity the per-capture power-margin histogram measures
/// from (the sim::MediumParams default).
inline constexpr double kCaptureMarginFloorDbm = -94.0;

/// EventSink that feeds the paper's §VII telemetry into a MetricsRegistry:
/// event counters per kind, the window-width distribution (Eq. 4/5), the
/// inter-attempt latency, the per-capture power margin in dB over the
/// sensitivity floor, and — via finalize() — per-trial aggregates such as
/// injection attempts per connection.
class MetricsSink : public EventSink {
public:
    explicit MetricsSink(MetricsRegistry& registry);

    void on_event(const Event& event) override;

    /// Records the per-trial aggregates (attempts per connection, trial
    /// span).  Call once, after the trial's last event.
    void finalize();

    /// Starts a new trial on the same cells: zeroes the registry and the
    /// per-trial state, so one sink serves trial after trial without
    /// re-resolving its cells.
    void restart() noexcept;

    [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }

private:
    void note_time(TimePoint t) noexcept;

    MetricsRegistry& registry_;

    // Resolved handles (hot path updates only).
    MetricsRegistry::Counter& events_total_;
    MetricsRegistry::Counter& tx_frames_;
    MetricsRegistry::Counter& rx_delivered_;
    MetricsRegistry::Counter& rx_corrupted_;
    MetricsRegistry::Counter& rx_lost_sync_;
    MetricsRegistry::Counter& conn_opened_;
    MetricsRegistry::Counter& conn_events_;
    MetricsRegistry::Counter& conn_closed_;
    MetricsRegistry::Counter& anchors_missed_;
    MetricsRegistry::Counter& windows_opened_;
    MetricsRegistry::Counter& window_misses_;
    MetricsRegistry::Counter& injection_attempts_;
    MetricsRegistry::Counter& injection_wins_;
    MetricsRegistry::Counter& injection_accepted_;
    MetricsRegistry::Counter& ids_alerts_;
    MetricsRegistry::Histogram& tx_airtime_ns_;
    MetricsRegistry::Histogram& capture_margin_db_;
    MetricsRegistry::Histogram& window_width_ns_;
    MetricsRegistry::Histogram& inter_attempt_gap_ns_;
    MetricsRegistry::Histogram& attempts_per_connection_;
    MetricsRegistry::Gauge& last_attempt_;

    bool any_event_ = false;
    TimePoint first_time_ = 0;
    TimePoint last_time_ = 0;
    bool have_attempt_time_ = false;
    TimePoint last_attempt_time_ = 0;
    std::uint64_t trial_attempts_ = 0;
    bool finalized_ = false;
};

}  // namespace ble::obs
