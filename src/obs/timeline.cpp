#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace ble::obs {

Duration OccupancyReport::device_airtime(const std::string& device) const {
    const auto it = per_device.find(device);
    if (it == per_device.end()) return 0;
    Duration total = 0;
    for (const auto& [channel, usage] : it->second) total += usage.airtime;
    return total;
}

Duration OccupancyReport::channel_airtime(std::uint8_t channel) const {
    Duration total = 0;
    for (const auto& [device, channels] : per_device) {
        const auto it = channels.find(channel);
        if (it != channels.end()) total += it->second.airtime;
    }
    return total;
}

double OccupancyReport::duty_cycle(const std::string& device) const {
    const Duration s = span();
    if (s <= 0) return 0.0;
    return static_cast<double>(device_airtime(device)) / static_cast<double>(s);
}

void ChannelOccupancySink::note_time(TimePoint t) noexcept {
    if (!report_.any) {
        report_.first_event = t;
        report_.any = true;
    }
    report_.last_event = std::max(report_.last_event, t);
}

namespace {

/// Trace-event timestamps are microseconds; three decimals keep the full
/// nanosecond resolution and a deterministic rendering.
void append_us(std::string& out, std::int64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    out += buf;
}

}  // namespace

void ChannelOccupancySink::add_complete(int tid, std::string_view name, std::string_view cat,
                                        TimePoint start, Duration duration,
                                        std::string_view args_json) {
    std::string e;
    e.reserve(96);
    e += "{\"name\":\"";
    json::append_escaped(e, name);
    e += "\",\"cat\":\"";
    json::append_escaped(e, cat);
    e += "\",\"ph\":\"X\",\"ts\":";
    append_us(e, start);
    e += ",\"dur\":";
    append_us(e, duration);
    e += ",\"pid\":0,\"tid\":" + std::to_string(tid);
    if (!args_json.empty()) {
        e += ",\"args\":";
        e += args_json;
    }
    e += '}';
    trace_events_.push_back(std::move(e));
    tids_.insert(tid);
}

void ChannelOccupancySink::add_instant(int tid, std::string_view name, std::string_view cat,
                                       TimePoint time) {
    std::string e;
    e.reserve(96);
    e += "{\"name\":\"";
    json::append_escaped(e, name);
    e += "\",\"cat\":\"";
    json::append_escaped(e, cat);
    e += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    append_us(e, time);
    e += ",\"pid\":0,\"tid\":" + std::to_string(tid) + '}';
    trace_events_.push_back(std::move(e));
    tids_.insert(tid);
}

void ChannelOccupancySink::on_event(const Event& event) {
    struct Visitor {
        ChannelOccupancySink& self;

        void operator()(const TxStart& e) const {
            self.note_time(e.time);
            self.note_time(e.time + e.duration);

            auto& usage = self.report_.per_device[std::string(e.sender)][e.channel];
            ++usage.frames;
            usage.airtime += e.duration;

            // Pairwise overlap with frames still in flight on this channel.
            auto& flights = self.in_flight_[e.channel];
            std::erase_if(flights, [&](const InFlight& f) { return f.end <= e.time; });
            const TimePoint end = e.time + e.duration;
            for (const InFlight& f : flights) {
                const Duration overlap = std::min(f.end, end) - e.time;
                if (overlap > 0) self.report_.collision_overlap[e.channel] += overlap;
            }
            flights.push_back(InFlight{e.time, end});

            std::string args = "{\"bytes\":" + std::to_string(e.bytes.size()) +
                               ",\"tx_id\":" + std::to_string(e.tx_id) + '}';
            self.add_complete(e.channel, e.sender, "tx", e.time, e.duration, args);
        }
        void operator()(const RxDecision& e) const {
            self.note_time(e.time);
            std::string name = "rx:";
            name += e.receiver;
            name += ':';
            name += rx_verdict_name(e.verdict);
            self.add_instant(e.channel, name, "rx", e.time);
        }
        void operator()(const ConnEvent& e) const {
            self.note_time(e.time);
            if (e.kind == ConnEvent::Kind::kEventClosed) return;  // too chatty to plot
            std::string name = e.kind == ConnEvent::Kind::kOpened ? "conn-open:" : "conn-close:";
            name += e.device;
            self.add_instant(kTimelineMarkerRow, name, "conn", e.time);
        }
        void operator()(const WindowWiden& e) const {
            self.note_time(e.time);
            std::string name = "window:";
            name += e.device;
            if (e.missed) name += " (missed)";
            // The receive window: widening on both anchor sides plus the
            // transmit window itself.
            self.add_complete(e.channel, name, "widen", e.time, 2 * e.widening + e.window);
        }
        void operator()(const InjectionAttempt& e) const {
            self.note_time(e.time);
            std::string name = "attempt " + std::to_string(e.attempt);
            name += e.heuristic_success ? " (win)" : " (miss)";
            self.add_instant(e.channel, name, "attempt", e.time);
        }
        void operator()(const IdsAlert& e) const {
            self.note_time(e.time);
            std::string name = "ids:";
            name += e.type_name;
            self.add_instant(kTimelineMarkerRow, name, "ids", e.time);
        }
        void operator()(const TrialPhase& e) const {
            self.note_time(e.time);
            std::string name = "phase:";
            name += e.phase;
            self.add_instant(kTimelineMarkerRow, name, "phase", e.time);
        }
    };
    std::visit(Visitor{*this}, event);
}

std::string ChannelOccupancySink::chrome_trace_json() const {
    std::string out;
    std::size_t total = 64;
    for (const auto& e : trace_events_) total += e.size() + 1;
    out.reserve(total + tids_.size() * 96);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto add = [&](const std::string& e) {
        if (!first) out += ',';
        first = false;
        out += e;
    };
    add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"BLE air "
        "(rows = channels)\"}}");
    for (const int tid : tids_) {
        std::string name = tid == kTimelineMarkerRow ? std::string("markers")
                                                     : "ch " + std::to_string(tid);
        add("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
            ",\"args\":{\"name\":\"" + name + "\"}}");
        // Sort rows by channel index in the viewer.
        add("{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
            std::to_string(tid) + ",\"args\":{\"sort_index\":" + std::to_string(tid) + "}}");
    }
    for (const auto& e : trace_events_) add(e);
    out += "]}";
    return out;
}

bool ChannelOccupancySink::write_chrome_trace(const std::string& path) const {
    const std::string doc = chrome_trace_json();
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (std::fclose(f) != 0) ok = false;
    return ok;
}

void ChannelOccupancySink::clear() {
    report_ = OccupancyReport{};
    in_flight_.clear();
    trace_events_.clear();
    tids_.clear();
}

}  // namespace ble::obs
