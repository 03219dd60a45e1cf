// EventBus: the per-world observation stream.
//
// One bus per simulated world (it lives in the world's RadioMedium, so every
// component that can reach the radio can reach the bus).  A bus is strictly
// single-threaded — it belongs to one trial's scheduler thread, which is what
// lets TrialRunner attach per-trial sinks with no shared mutable state: each
// worker gets an isolated world, bus and sink set, and the resulting event
// streams are bit-identical between serial and parallel runs.
//
// Two subscriber forms:
//  * EventSink — a virtual interface for long-lived sinks (metrics, traces);
//  * subscribe(fn) — a std::function subscriber returning a token, with
//    ScopedSubscription as the RAII form.
// Dispatch order is attachment order (sinks first, then function
// subscribers), which keeps any side effects deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace ble::obs {

class EventSink {
public:
    virtual ~EventSink() = default;
    virtual void on_event(const Event& event) = 0;
};

class EventBus {
public:
    using Token = std::uint64_t;
    static constexpr Token kInvalidToken = 0;

    EventBus() = default;
    EventBus(const EventBus&) = delete;
    EventBus& operator=(const EventBus&) = delete;

    /// Attaches a sink; the sink must outlive the bus or detach first.
    void attach(EventSink& sink) { sinks_.push_back(&sink); }
    void detach(const EventSink& sink) noexcept {
        std::erase(sinks_, const_cast<EventSink*>(&sink));
    }

    /// Function subscriber; keep the token to unsubscribe.
    Token subscribe(std::function<void(const Event&)> fn) {
        const Token token = next_token_++;
        subscribers_.push_back(Subscriber{token, std::move(fn)});
        return token;
    }
    void unsubscribe(Token token) noexcept {
        std::erase_if(subscribers_, [token](const Subscriber& s) { return s.token == token; });
    }

    /// Detaches every sink and subscriber: the bus of a restarted world
    /// starts as empty as a new one.  Tokens are not reissued, so a token
    /// kept from before unsubscribes nothing.
    void clear() noexcept {
        sinks_.clear();
        subscribers_.clear();
    }

    /// True when at least one sink or subscriber is attached — emitters may
    /// skip building expensive event payloads when nobody listens.
    [[nodiscard]] bool active() const noexcept {
        return !sinks_.empty() || !subscribers_.empty();
    }
    [[nodiscard]] std::size_t subscriber_count() const noexcept {
        return sinks_.size() + subscribers_.size();
    }

    /// Publishes one event to every subscriber, in attachment order.  Do not
    /// attach/detach from inside a handler.
    template <typename E>
    void emit(const E& event) {
        if (!active()) return;
        dispatch(Event(event));
    }

    void dispatch(const Event& event) {
        for (EventSink* sink : sinks_) sink->on_event(event);
        for (const Subscriber& s : subscribers_) s.fn(event);
    }

private:
    struct Subscriber {
        Token token;
        std::function<void(const Event&)> fn;
    };

    std::vector<EventSink*> sinks_;
    std::vector<Subscriber> subscribers_;
    Token next_token_ = 1;
};

/// RAII function subscription: unsubscribes on destruction.  The bus must
/// outlive the subscription (or be destroyed *with* it, as when a trial's
/// world and its sinks share a scope and the bus dies first is avoided by
/// declaring the subscription after the world).
class ScopedSubscription {
public:
    ScopedSubscription() = default;
    ScopedSubscription(EventBus& bus, std::function<void(const Event&)> fn)
        : bus_(&bus), token_(bus.subscribe(std::move(fn))) {}
    ~ScopedSubscription() { reset(); }

    ScopedSubscription(ScopedSubscription&& other) noexcept
        : bus_(std::exchange(other.bus_, nullptr)),
          token_(std::exchange(other.token_, EventBus::kInvalidToken)) {}
    ScopedSubscription& operator=(ScopedSubscription&& other) noexcept {
        if (this != &other) {
            reset();
            bus_ = std::exchange(other.bus_, nullptr);
            token_ = std::exchange(other.token_, EventBus::kInvalidToken);
        }
        return *this;
    }

    void reset() noexcept {
        if (bus_ != nullptr && token_ != EventBus::kInvalidToken) bus_->unsubscribe(token_);
        bus_ = nullptr;
        token_ = EventBus::kInvalidToken;
    }

    [[nodiscard]] bool attached() const noexcept { return bus_ != nullptr; }

private:
    EventBus* bus_ = nullptr;
    EventBus::Token token_ = EventBus::kInvalidToken;
};

}  // namespace ble::obs
