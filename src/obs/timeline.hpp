// ChannelOccupancySink: who owned the air, when, on which channel.
//
// The injection race is a timing story — the attacker's frame must occupy the
// channel before the legitimate master's (paper §V, Fig. 5) — so the most
// direct way to audit a trial is its airtime timeline.  This sink folds the
// bus's TxStart stream into per-device / per-channel airtime, duty cycle and
// collision-overlap time, and renders the whole trial as a Chrome trace-event
// JSON file (load it in chrome://tracing or https://ui.perfetto.dev): one
// timeline row per BLE channel, a frame per transmission, instants for
// injection attempts, widened windows, IDS alerts and trial phases.
//
// Like every obs sink it is single-threaded per world; attach one per trial.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/bus.hpp"

namespace ble::obs {

struct ChannelUsage {
    std::uint64_t frames = 0;
    Duration airtime = 0;
};

struct OccupancyReport {
    bool any = false;  ///< at least one event observed
    TimePoint first_event = 0;
    TimePoint last_event = 0;
    /// device name -> channel -> usage (TxStart aggregation).
    std::map<std::string, std::map<std::uint8_t, ChannelUsage>> per_device;
    /// channel -> time two or more frames overlapped (pairwise overlap sum).
    std::map<std::uint8_t, Duration> collision_overlap;

    [[nodiscard]] Duration span() const noexcept {
        return any ? last_event - first_event : 0;
    }
    [[nodiscard]] Duration device_airtime(const std::string& device) const;
    [[nodiscard]] Duration channel_airtime(std::uint8_t channel) const;
    /// Airtime of `device` across all channels over the observed span, in
    /// [0, 1] (0 when the span is empty).
    [[nodiscard]] double duty_cycle(const std::string& device) const;
};

class ChannelOccupancySink : public EventSink {
public:
    void on_event(const Event& event) override;

    [[nodiscard]] const OccupancyReport& report() const noexcept { return report_; }

    /// Full Chrome trace-event JSON document ({"traceEvents":[...]}).
    [[nodiscard]] std::string chrome_trace_json() const;
    /// Writes chrome_trace_json() to `path`; false on I/O error.
    bool write_chrome_trace(const std::string& path) const;

    void clear();

private:
    void note_time(TimePoint t) noexcept;
    /// Appends one rendered trace-event JSON object for `tid`.
    void add_complete(int tid, std::string_view name, std::string_view cat, TimePoint start,
                      Duration duration, std::string_view args_json = {});
    void add_instant(int tid, std::string_view name, std::string_view cat, TimePoint time);

    OccupancyReport report_;

    struct InFlight {
        TimePoint start = 0;
        TimePoint end = 0;
    };
    std::map<std::uint8_t, std::vector<InFlight>> in_flight_;

    /// Pre-rendered trace-event objects (event fields are views that die with
    /// the dispatch, so rendering happens inline).
    std::vector<std::string> trace_events_;
    std::set<int> tids_;
};

/// The synthetic row used for phase / IDS instants (above the 0..39 channels).
inline constexpr int kTimelineMarkerRow = 40;

}  // namespace ble::obs
