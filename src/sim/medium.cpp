#include "sim/medium.hpp"

#include <algorithm>
#include <cmath>

#include "obs/work_counters.hpp"
#include "sim/radio_device.hpp"

namespace ble::sim {

namespace {
double dbm_to_mw(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) noexcept { return 10.0 * std::log10(mw); }

/// The bytes [first, last) of a frame that one interferer overlaps.
struct OverlapRun {
    std::size_t first, last;
    double power_mw;
};
}  // namespace

LotteryOutcome capture_lottery(const AirFrame& frame, TimePoint start,
                               std::span<const Interference> interferers, double signal_dbm,
                               double noise_mw, double noise_dbm, const CaptureModel& capture,
                               Rng& rng, Bytes& bytes) {
    bytes.assign(frame.bytes.begin(), frame.bytes.end());
    const auto n = static_cast<std::int64_t>(bytes.size());

    // Byte i is on air over [body + i·bt, body + (i+1)·bt), and an interferer
    // overlaps it when it starts before the byte ends and ends after the byte
    // starts: for i >= ⌊(start − body)/bt⌋ and i < ⌈(end − body)/bt⌉.  The
    // runs stay in id order, which fixes the order of the phase draws and of
    // the interference sums.
    const TimePoint body = start + frame.preamble_time;
    const Duration bt = frame.byte_time;
    InlineVec<OverlapRun, 4> runs;
    for (const Interference& intf : interferers) {
        const Duration from = intf.start - body;
        const Duration to = intf.end - body;
        const auto first = std::clamp<std::int64_t>(from / bt - (from % bt < 0), 0, n);
        const auto last = std::clamp<std::int64_t>(to / bt + (to % bt > 0), 0, n);
        if (first < last) {
            runs.push_back({static_cast<std::size_t>(first), static_cast<std::size_t>(last),
                            intf.power_mw});
        }
    }

    // A local copy that never has its address taken (every Rng call below
    // is inline), so its state stays in registers across the byte writes.
    Rng local = rng;
    LotteryOutcome outcome;
    auto corrupt = [&](std::size_t i) {
        // Flip a random bit: the CRC then fails naturally downstream.
        bytes[i] ^= static_cast<std::uint8_t>(1u << local.next_below(8));
        ++outcome.corrupted_bytes;
        if (i < frame.sync_bytes) ++outcome.sync_bit_errors;
    };

    // A byte no interferer overlaps sees only the noise floor and the
    // neutral phase: one probability for the delivery, compared with the
    // draws as an integer threshold, and only evaluated once a draw falls
    // below the cheap bound.
    const double snr_db = signal_dbm - noise_dbm;
    std::uint64_t noise_threshold = Rng::chance_threshold(capture.neutral_phase_bound(snr_db));
    bool noise_threshold_exact = false;

    for (std::size_t i = 0; i < bytes.size();) {
        // The segment from byte i ends where an interferer starts or stops
        // overlapping; its interference sum adds their powers in id order.
        std::size_t end = bytes.size();
        int overlapping = 0;
        double interference_mw = noise_mw;
        for (const OverlapRun& run : runs) {
            if (run.first > i) {
                end = std::min(end, run.first);
            } else if (run.last > i) {
                end = std::min(end, run.last);
                interference_mw += run.power_mw;
                ++overlapping;
            }
        }

        if (overlapping == 0) {
            for (; i < end; ++i) {
                const std::uint64_t draw = local.next_u64() >> 11;  // next_double()'s bits
                if (draw >= noise_threshold) continue;
                if (!noise_threshold_exact) {
                    noise_threshold_exact = true;
                    noise_threshold =
                        Rng::chance_threshold(capture.byte_corruption_prob(snr_db, 0.5));
                    if (draw >= noise_threshold) continue;
                }
                corrupt(i);
            }
            continue;
        }

        // The carrier-phase alignment between two unsynchronised transmitters
        // rotates with their frequency offset (paper §V-D: survival "depends
        // on the phase difference between the injected and legitimate
        // signals"), with a coherence time on the order of a byte — so the
        // phase lottery is drawn per byte, which is what makes longer
        // overlaps deadlier.  One phase per overlapping interferer, in id
        // order; the last one counts.
        const double sir_db = signal_dbm - mw_to_dbm(interference_mw);
        const CaptureModel::CorruptionBand band = capture.corruption_band(sir_db);
        for (; i < end; ++i) {
            for (int k = 1; k < overlapping; ++k) local.next_u64();
            const double phase = local.next_double();
            if (capture.byte_corrupted(local.next_double(), sir_db, phase, band)) corrupt(i);
        }
    }
    rng = local;
    return outcome;
}

RadioMedium::RadioMedium(Scheduler& scheduler, Rng rng, PathLossModel path_loss,
                         CaptureModel capture, MediumParams params)
    : scheduler_(scheduler),
      rng_(rng),
      path_loss_(std::move(path_loss)),
      capture_(capture),
      params_(params),
      noise_mw_(dbm_to_mw(params_.noise_floor_dbm)),
      noise_dbm_(mw_to_dbm(noise_mw_)) {}

void RadioMedium::restart(Rng rng) {
    rng_ = rng;
    bus_.clear();
    run_ = RunState{};
    for (ListenerList& list : listeners_) list.clear();
    for (auto& list : channel_active_) list.clear();
    for (auto& record : active_) spare_.push_back(std::move(record));
    active_.clear();
}

void RadioMedium::attach(RadioDevice& device) {
    device.listen_state_ = ListenState{};
    device.listen_state_.attach_order = run_.next_attach_order++;
}

void RadioMedium::detach(RadioDevice& device) noexcept {
    if (device.listen_state_.active) remove_listener(device, device.listen_state_.channel);
    // Any in-flight transmission keeps a sender pointer only for exclusion
    // checks; clear it so a device destroyed mid-frame cannot dangle.
    for (const auto& tx : active_) {
        if (tx->sender == &device) tx->sender = nullptr;
    }
}

void RadioMedium::insert_listener(RadioDevice& device, Channel channel) {
    ListenerList& list = listeners_[channel];
    const std::uint64_t order = device.listen_state_.attach_order;
    // Keep the list sorted by attach order so its walk order equals the
    // historical all-device walk restricted to this channel.  Appending is
    // the hot case (a device re-opening its receive window lands back where
    // it was), so it skips the ordered insert entirely.
    if (list.empty() || list.back()->listen_state_.attach_order < order) {
        list.push_back(&device);
        return;
    }
    const auto pos =
        std::lower_bound(list.begin(), list.end(), order,
                         [](const RadioDevice* d, std::uint64_t attach_order) {
                             return d->listen_state_.attach_order < attach_order;
                         });
    list.insert(pos, &device);
}

void RadioMedium::remove_listener(RadioDevice& device, Channel channel) noexcept {
    ListenerList& list = listeners_[channel];
    if (!list.empty() && list.back() == &device) {  // mirror of the append fast path
        list.pop_back();
        return;
    }
    list.erase_value(&device);
}

void RadioMedium::start_listening(RadioDevice& device, Channel channel) {
    ListenState& state = device.listen_state_;
    if (state.active && state.channel == channel) {
        state.locked_tx = 0;  // re-listening on the same channel drops any sync
        return;
    }
    if (state.active) remove_listener(device, state.channel);
    state.channel = channel;
    state.active = true;
    state.locked_tx = 0;  // switching channels drops any sync
    insert_listener(device, channel);
}

bool RadioMedium::is_receiving(const RadioDevice& device) const noexcept {
    const ListenState& state = device.listen_state_;
    return state.active && state.locked_tx != 0;
}

void RadioMedium::stop_listening(RadioDevice& device) noexcept {
    ListenState& state = device.listen_state_;
    if (state.active) remove_listener(device, state.channel);
    state.active = false;
    state.locked_tx = 0;
}

double RadioMedium::mean_loss_db(const RadioDevice& sender, RadioDevice& receiver) {
    const std::uint64_t key = sender.listen_state_.attach_order;
    ListenState::MeanLoss& memo =
        receiver.listen_state_.mean_loss[key % ListenState::kMeanLossSlots];
    if (memo.sender != key) {
        memo = {key, path_loss_.mean_loss_db(sender.position(), receiver.position())};
    }
    return memo.db;
}

double RadioMedium::draw_rx_power(Transmission& tx, RadioDevice& receiver) {
    // One fading draw per (frame, receiver): channel hopping decorrelates
    // consecutive frames, so each frame sees a fresh fade on the memoized
    // mean.
    const double loss = tx.sender == nullptr ? 200.0
                                             : mean_loss_db(*tx.sender, receiver) +
                                                   path_loss_.fading_db(rng_);
    const double power = (tx.sender ? tx.sender->tx_power_dbm() : 0.0) - loss;
    tx.rx_power_dbm.push_back(RxPower{receiver.listen_state_.attach_order, power});
    return power;
}

double RadioMedium::rx_power_dbm(Transmission& tx, RadioDevice& receiver) {
    const std::uint64_t key = receiver.listen_state_.attach_order;
    for (const RxPower& memo : tx.rx_power_dbm) {
        if (memo.receiver == key) return memo.dbm;
    }
    return draw_rx_power(tx, receiver);
}

std::uint64_t RadioMedium::transmit(RadioDevice& device, Channel channel,
                                    const AirFrame& frame) {
    // Half-duplex: transmitting suspends any reception in progress.
    stop_listening(device);
    device.transmitting_ = true;

    if (spare_.empty()) {
        active_.push_back(std::make_unique<Transmission>());
        // Sized for any frame, so reusing the record never grows it, however
        // garbage collection and restart() order the spare list.
        active_.back()->frame.bytes.reserve(kMaxAirFrameBytes);
        if (spare_.capacity() < ++records_) spare_.reserve(2 * records_);
    } else {
        active_.push_back(std::move(spare_.back()));
        spare_.pop_back();
    }
    Transmission& stored = *active_.back();
    const std::uint64_t id = run_.next_tx_id++;
    stored.id = id;
    stored.sender = &device;
    stored.channel = channel;
    stored.start = scheduler_.now();
    stored.end = stored.start + frame.duration();
    run_.max_duration = std::max(run_.max_duration, stored.end - stored.start);
    stored.frame = frame;
    stored.rx_power_dbm.clear();
    // Ids are monotonic, so appending keeps the per-channel view id-ordered.
    channel_active_[channel].push_back(&stored);

    if (bus_.active()) {
        obs::TxStart event;
        event.time = stored.start;
        event.tx_id = id;
        event.channel = channel;
        event.sender = device.name();
        event.bytes = stored.frame.bytes;
        event.duration = stored.frame.duration();
        event.tx_power_dbm = device.tx_power_dbm();
        bus_.emit(event);
    }

    // Idle listeners on this channel lock onto the new frame if it is loud
    // enough. Listeners already locked on an earlier frame, or that started
    // listening mid-frame, cannot sync (no preamble for them) — the frame
    // only interferes.  The interest list walks this channel's listeners in
    // attach order, which fixes the order of the fading draws; each appears
    // once, so its power is drawn with no memo lookup.
    for (RadioDevice* d : listeners_[channel]) {
        if (d == &device) continue;
        ListenState& state = d->listen_state_;
        if (state.locked_tx != 0 || d->transmitting()) continue;
        if (draw_rx_power(stored, *d) >= params_.sensitivity_dbm) {
            state.locked_tx = id;
        }
    }

    // The finish event must fire even if the sender detaches mid-frame — the
    // medium outlives every frame, and finish_transmission tolerates a gone
    // sender, so there is never a reason to cancel it.
    (void)scheduler_.schedule_at(stored.end, [this, id] { finish_transmission(id); });
    return id;
}

void RadioMedium::deliver(Transmission& tx, RadioDevice& receiver) {
    obs::work::count(obs::work::Site::kMediumDeliver);
    const double signal_dbm = rx_power_dbm(tx, receiver);

    // Collect interferers overlapping this frame at this receiver.
    // channel_active_ is id-ordered, which fixes the FP accumulation order
    // and the order of the fading draws.  Ids follow start times, so the
    // scan starts at the first record that can still be on air (none lasts
    // longer than run_.max_duration) and stops at the first that starts after
    // this frame ends.
    const auto& on_channel = channel_active_[tx.channel];
    const auto first = std::lower_bound(
        on_channel.begin(), on_channel.end(), tx.start - run_.max_duration,
        [](const Transmission* record, TimePoint from) { return record->start < from; });
    InlineVec<Interference, 4> interferers;
    for (auto it = first; it != on_channel.end(); ++it) {
        Transmission* other = *it;
        if (other->start >= tx.end) break;
        if (other->id == tx.id || other->end <= tx.start) continue;
        if (other->sender == &receiver) continue;  // own TX handled by half-duplex
        interferers.push_back(
            Interference{other->start, other->end, dbm_to_mw(rx_power_dbm(*other, receiver))});
    }
    const LotteryOutcome lottery =
        capture_lottery(tx.frame, tx.start, {interferers.begin(), interferers.size()},
                        signal_dbm, noise_mw_, noise_dbm_, capture_, rng_, rx_bytes_);

    receiver.listen_state_.locked_tx = 0;  // receiver returns to idle listening

    const bool corrupted = lottery.corrupted_bytes > 0;
    const bool lost_sync = lottery.sync_bit_errors > params_.max_sync_bit_errors;
    if (bus_.active()) {
        obs::RxDecision decision;
        decision.time = tx.end;
        decision.tx_id = tx.id;
        decision.channel = tx.channel;
        decision.receiver = receiver.name();
        decision.verdict = lost_sync     ? obs::RxVerdict::kLostSync
                           : corrupted   ? obs::RxVerdict::kDeliveredCorrupted
                                         : obs::RxVerdict::kDelivered;
        decision.rssi_dbm = signal_dbm;
        decision.noise_dbm = params_.noise_floor_dbm;
        decision.corrupted_bytes = lottery.corrupted_bytes;
        decision.sync_bit_errors = lottery.sync_bit_errors;
        bus_.emit(decision);
    }
    // The correlator never matched: nothing is delivered, exactly like a
    // real radio that misses the access address.
    if (lost_sync) return;
    // A tolerated near-miss correlation outputs the *matched* sync word.
    std::copy_n(tx.frame.bytes.begin(), std::min(tx.frame.sync_bytes, rx_bytes_.size()),
                rx_bytes_.begin());

    RxFrame rx;
    rx.bytes = std::move(rx_bytes_);
    rx.start = tx.start;
    rx.end = tx.end;
    rx.channel = tx.channel;
    rx.rssi_dbm = signal_dbm;
    rx.corrupted_by_medium = corrupted;
    rx.transmission_id = tx.id;
    receiver.on_rx(rx);
    rx_bytes_ = std::move(rx.bytes);  // on_rx sees a const ref; keep the buffer
}

void RadioMedium::collect_garbage() {
    // Keep records around briefly so frames that overlapped them can still
    // account for their interference, then move each reclaimed record and
    // its per-channel slot out together, keeping the rest in id order.
    // Records are in start order and a record that started at or after the
    // horizon also ends after it, so the walk stops there.
    const TimePoint now = scheduler_.now();
    const TimePoint horizon = now - 10_ms;
    auto kept = active_.begin();
    auto it = active_.begin();
    for (; it != active_.end() && (*it)->start < horizon; ++it) {
        Transmission& tx = **it;
        if (tx.end <= now && tx.end < horizon) {
            channel_active_[tx.channel].erase_value(&tx);
            spare_.push_back(std::move(*it));
        } else {
            if (kept != it) *kept = std::move(*it);
            ++kept;
        }
    }
    active_.erase(kept, it);
}

void RadioMedium::finish_transmission(std::uint64_t tx_id) {
    // Deliberately unspanned: trivial bookkeeping whose time reads naturally
    // as sim.dispatch self-time; medium.transmit/deliver carry the profile.
    const auto it = std::lower_bound(
        active_.begin(), active_.end(), tx_id,
        [](const std::unique_ptr<Transmission>& record, std::uint64_t id) {
            return record->id < id;
        });
    if (it == active_.end() || (*it)->id != tx_id) return;
    Transmission& tx = **it;

    RadioDevice* sender = tx.sender;

    // Deliver to every receiver locked on this frame. Snapshot first: on_rx
    // handlers may retune radios or start transmissions. Walk in attach
    // order: delivery order decides the rng_ draw order, so heap layout must
    // never leak into it (the PR 3 regression).  A locked receiver is by
    // invariant still a member of this channel's interest list (locks are
    // cleared on any retune/stop).
    InlineVec<RadioDevice*, 8> locked;
    for (RadioDevice* device : listeners_[tx.channel]) {
        if (device->listen_state_.locked_tx == tx_id) locked.push_back(device);
    }
    for (RadioDevice* receiver : locked) deliver(tx, *receiver);

    collect_garbage();
    // NOTE: `tx` may be a reclaimed record from here on.

    if (sender != nullptr) {
        sender->transmitting_ = false;
        sender->on_tx_complete();
    }
}

}  // namespace ble::sim
