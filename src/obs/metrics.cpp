#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.hpp"

namespace ble::obs {

void HistogramSnapshot::record(std::uint64_t value) noexcept {
    if (count == 0 || value < min) min = value;
    if (count == 0 || value > max) max = value;
    ++count;
    sum += value;
    ++buckets[static_cast<std::size_t>(histogram_bucket_of(value))];
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
    if (other.count == 0) return;
    if (count == 0 || other.min < min) min = other.min;
    if (count == 0 || other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
}

void GaugeSnapshot::record(std::int64_t value) noexcept {
    if (samples == 0 || value < min) min = value;
    if (samples == 0 || value > max) max = value;
    last = value;
    ++samples;
}

void GaugeSnapshot::merge(const GaugeSnapshot& other) noexcept {
    if (other.samples == 0) return;
    if (samples == 0 || other.min < min) min = other.min;
    if (samples == 0 || other.max > max) max = other.max;
    last = other.last;
    samples += other.samples;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (const auto& [name, gauge] : other.gauges) gauges[name].merge(gauge);
    for (const auto& [name, histogram] : other.histograms) histograms[name].merge(histogram);
}

namespace {

void append_key(std::string& out, std::string_view name, bool& first) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json::append_escaped(out, name);
    out += "\":";
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
    std::string out;
    out.reserve(256);
    out += "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
        append_key(out, name, first);
        out += std::to_string(value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges) {
        append_key(out, name, first);
        out += "{\"n\":" + std::to_string(g.samples) + ",\"last\":" + std::to_string(g.last) +
               ",\"min\":" + std::to_string(g.min) + ",\"max\":" + std::to_string(g.max) + "}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms) {
        append_key(out, name, first);
        out += "{\"n\":" + std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
               ",\"min\":" + std::to_string(h.min) + ",\"max\":" + std::to_string(h.max) +
               ",\"buckets\":[";
        bool first_bucket = true;
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (h.buckets[b] == 0) continue;
            if (!first_bucket) out += ',';
            first_bucket = false;
            out += '[' + std::to_string(b) + ',' + std::to_string(h.buckets[b]) + ']';
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

std::optional<MetricsSnapshot> MetricsSnapshot::from_json(const json::Value& value,
                                                          std::string* error) {
    MetricsSnapshot snap;
    if (const json::Value* counters = value.find("counters")) {
        for (const auto& [name, v] : counters->object) snap.counters[name] = v.as_u64();
    }
    if (const json::Value* gauges = value.find("gauges")) {
        for (const auto& [name, v] : gauges->object) {
            snap.gauges[name] = {v.u64("n"), v.i64("last"), v.i64("min"), v.i64("max")};
        }
    }
    if (const json::Value* histograms = value.find("histograms")) {
        for (const auto& [name, v] : histograms->object) {
            HistogramSnapshot h;
            h.count = v.u64("n");
            h.sum = v.u64("sum");
            h.min = v.u64("min");
            h.max = v.u64("max");
            if (const json::Value* buckets = v.find("buckets")) {
                for (const json::Value& pair : buckets->array) {
                    if (pair.array.size() != 2) continue;
                    // to_json writes bit_width indices; any other index
                    // would index past the bucket array.
                    const std::int64_t b = pair.array[0].as_i64(-1);
                    if (b < 0 || b >= kHistogramBuckets) {
                        if (error != nullptr) {
                            *error = "histogram '" + name + "' has bucket index " +
                                     std::to_string(b) + " outside 0.." +
                                     std::to_string(kHistogramBuckets - 1);
                        }
                        return std::nullopt;
                    }
                    h.buckets[static_cast<std::size_t>(b)] += pair.array[1].as_u64();
                }
            }
            snap.histograms[name] = h;
        }
    }
    return snap;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot snap;
    for (const auto& [name, counter] : counters_) snap.counters.emplace(name, counter.value());
    for (const auto& [name, gauge] : gauges_) snap.gauges.emplace(name, gauge);
    for (const auto& [name, histogram] : histograms_) snap.histograms.emplace(name, histogram);
    return snap;
}

void MetricsRegistry::reset() noexcept {
    for (auto& [name, counter] : counters_) counter = Counter{};
    for (auto& [name, gauge] : gauges_) gauge = Gauge{};
    for (auto& [name, histogram] : histograms_) histogram = Histogram{};
}

void print_metrics_summary(const MetricsSnapshot& snapshot, const std::string& label) {
    std::printf("metrics[%s]:\n", label.c_str());
    for (const auto& [name, value] : snapshot.counters) {
        std::printf("  %-28s %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }
    for (const auto& [name, g] : snapshot.gauges) {
        std::printf("  %-28s last=%lld min=%lld max=%lld (n=%llu)\n", name.c_str(),
                    static_cast<long long>(g.last), static_cast<long long>(g.min),
                    static_cast<long long>(g.max), static_cast<unsigned long long>(g.samples));
    }
    for (const auto& [name, h] : snapshot.histograms) {
        std::printf("  %-28s n=%llu mean=%.1f min=%llu max=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(h.count), h.mean(),
                    static_cast<unsigned long long>(h.min),
                    static_cast<unsigned long long>(h.max));
    }
}

MetricsSink::MetricsSink(MetricsRegistry& registry)
    : registry_(registry),
      events_total_(registry.counter("events_total")),
      tx_frames_(registry.counter("tx_frames")),
      rx_delivered_(registry.counter("rx_delivered")),
      rx_corrupted_(registry.counter("rx_corrupted")),
      rx_lost_sync_(registry.counter("rx_lost_sync")),
      conn_opened_(registry.counter("conn_opened")),
      conn_events_(registry.counter("conn_events")),
      conn_closed_(registry.counter("conn_closed")),
      anchors_missed_(registry.counter("anchors_missed")),
      windows_opened_(registry.counter("windows_opened")),
      window_misses_(registry.counter("window_misses")),
      injection_attempts_(registry.counter("injection_attempts")),
      injection_wins_(registry.counter("injection_wins")),
      injection_accepted_(registry.counter("injection_accepted")),
      ids_alerts_(registry.counter("ids_alerts")),
      tx_airtime_ns_(registry.histogram("tx_airtime_ns")),
      capture_margin_db_(registry.histogram("capture_margin_db")),
      window_width_ns_(registry.histogram("window_width_ns")),
      inter_attempt_gap_ns_(registry.histogram("inter_attempt_gap_ns")),
      attempts_per_connection_(registry.histogram("attempts_per_connection")),
      last_attempt_(registry.gauge("last_attempt")) {}

void MetricsSink::note_time(TimePoint t) noexcept {
    if (!any_event_) {
        first_time_ = t;
        any_event_ = true;
    }
    last_time_ = t;
}

void MetricsSink::on_event(const Event& event) {
    events_total_.add();
    struct Visitor {
        MetricsSink& self;

        void operator()(const TxStart& e) const {
            self.note_time(e.time);
            self.tx_frames_.add();
            self.tx_airtime_ns_.record(
                static_cast<std::uint64_t>(std::max<Duration>(e.duration, 0)));
        }
        void operator()(const RxDecision& e) const {
            self.note_time(e.time);
            switch (e.verdict) {
                case RxVerdict::kDelivered: self.rx_delivered_.add(); break;
                case RxVerdict::kDeliveredCorrupted:
                    self.rx_delivered_.add();
                    self.rx_corrupted_.add();
                    break;
                case RxVerdict::kLostSync: self.rx_lost_sync_.add(); break;
            }
            if (e.verdict != RxVerdict::kLostSync) {
                // Power margin over the sensitivity floor, whole dB, clamped
                // at zero (a capture below the floor never reaches us).
                const double margin = e.rssi_dbm - kCaptureMarginFloorDbm;
                const double rounded = std::floor(margin + 0.5);
                self.capture_margin_db_.record(
                    rounded <= 0.0 ? 0u : static_cast<std::uint64_t>(rounded));
            }
        }
        void operator()(const ConnEvent& e) const {
            self.note_time(e.time);
            switch (e.kind) {
                case ConnEvent::Kind::kOpened: self.conn_opened_.add(); break;
                case ConnEvent::Kind::kEventClosed:
                    self.conn_events_.add();
                    if (!e.anchor_observed) self.anchors_missed_.add();
                    break;
                case ConnEvent::Kind::kClosed: self.conn_closed_.add(); break;
            }
        }
        void operator()(const WindowWiden& e) const {
            self.note_time(e.time);
            if (e.missed) {
                self.window_misses_.add();
            } else {
                self.windows_opened_.add();
            }
            // Full receive-window width: widened on both sides of the anchor
            // (Eq. 4) plus the transmit window itself (Eq. 5).
            const Duration width = 2 * e.widening + e.window;
            self.window_width_ns_.record(static_cast<std::uint64_t>(std::max<Duration>(width, 0)));
        }
        void operator()(const InjectionAttempt& e) const {
            self.note_time(e.time);
            self.injection_attempts_.add();
            if (e.heuristic_success) self.injection_wins_.add();
            if (e.ground_truth_known && e.accepted_by_slave) self.injection_accepted_.add();
            self.last_attempt_.record(e.attempt);
            ++self.trial_attempts_;
            if (self.have_attempt_time_ && e.time >= self.last_attempt_time_) {
                self.inter_attempt_gap_ns_.record(
                    static_cast<std::uint64_t>(e.time - self.last_attempt_time_));
            }
            self.have_attempt_time_ = true;
            self.last_attempt_time_ = e.time;
        }
        void operator()(const IdsAlert& e) const {
            self.note_time(e.time);
            self.ids_alerts_.add();
        }
        void operator()(const TrialPhase& e) const { self.note_time(e.time); }
    };
    std::visit(Visitor{*this}, event);
}

void MetricsSink::restart() noexcept {
    registry_.reset();
    any_event_ = false;
    first_time_ = 0;
    last_time_ = 0;
    have_attempt_time_ = false;
    last_attempt_time_ = 0;
    trial_attempts_ = 0;
    finalized_ = false;
}

void MetricsSink::finalize() {
    if (finalized_) return;
    finalized_ = true;
    attempts_per_connection_.record(trial_attempts_);
    if (any_event_) {
        registry_.gauge("trial_span_ns").record(last_time_ - first_time_);
    }
}

}  // namespace ble::obs
