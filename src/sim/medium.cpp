#include "sim/medium.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "obs/work_counters.hpp"
#include "sim/radio_device.hpp"

namespace ble::sim {

namespace {
double dbm_to_mw(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) noexcept { return 10.0 * std::log10(mw); }
}  // namespace

RadioMedium::RadioMedium(Scheduler& scheduler, Rng rng, PathLossModel path_loss,
                         CaptureModel capture, MediumParams params)
    : scheduler_(scheduler),
      rng_(rng),
      path_loss_(std::move(path_loss)),
      capture_(capture),
      params_(params) {}

void RadioMedium::attach(RadioDevice& device) {
    device.listen_state_ = ListenState{};
    device.listen_state_.attach_order = next_attach_order_++;
}

void RadioMedium::detach(RadioDevice& device) noexcept {
    if (device.listen_state_.active) remove_listener(device, device.listen_state_.channel);
    // Any in-flight transmission keeps a sender pointer only for exclusion
    // checks; clear it so a device destroyed mid-frame cannot dangle.
    for (auto& [id, tx] : active_) {
        if (tx.sender == &device) tx.sender = nullptr;
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

double RadioMedium::rx_power_dbm(Transmission& tx, const RadioDevice& receiver) {
    for (const RxPower& memo : tx.rx_power_dbm) {
        if (memo.receiver == &receiver) return memo.dbm;
    }
    // One fading draw per (frame, receiver): channel hopping decorrelates
    // consecutive frames, so each frame sees a fresh fade.
    const double loss =
        tx.sender == nullptr
            ? 200.0
            : path_loss_.sample_loss_db(tx.sender->position(), receiver.position(), rng_);
    const double power = (tx.sender ? tx.sender->tx_power_dbm() : 0.0) - loss;
    tx.rx_power_dbm.push_back(RxPower{&receiver, power});
    return power;
}

std::uint64_t RadioMedium::transmit(RadioDevice& device, Channel channel, AirFrame frame) {
    // Half-duplex: transmitting suspends any reception in progress.
    stop_listening(device);
    device.transmitting_ = true;

    const std::uint64_t id = next_tx_id_++;
    Transmission& stored = active_.try_emplace(id).first->second;
    stored.id = id;
    stored.sender = &device;
    stored.channel = channel;
    stored.start = scheduler_.now();
    stored.end = stored.start + frame.duration();
    stored.frame = std::move(frame);
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
    // attach order, which fixes the order of the fading draws.
    for (RadioDevice* d : listeners_[channel]) {
        if (d == &device) continue;
        ListenState& state = d->listen_state_;
        if (state.locked_tx != 0 || d->transmitting()) continue;
        if (rx_power_dbm(stored, *d) >= params_.sensitivity_dbm) {
            state.locked_tx = id;
        }
    }

    // The finish event must fire even if the sender detaches mid-frame — the
    // medium outlives every frame, and finish_transmission tolerates a gone
    // sender, so there is never a reason to cancel it.
    (void)scheduler_.schedule_at(  // injectable-lint: allow(D4) -- see above
        stored.end, [this, id] { finish_transmission(id); });
    return id;
}

void RadioMedium::flush_rx_batch() {
    if (rx_batch_.empty()) return;
    bus_.emit_batch(rx_batch_.data(), rx_batch_.size());
    rx_batch_.clear();
}

void RadioMedium::deliver(Transmission& tx, RadioDevice& receiver) {
    obs::work::count(obs::work::Site::kMediumDeliver);
    const double signal_dbm = rx_power_dbm(tx, receiver);
    const double noise_mw = dbm_to_mw(params_.noise_floor_dbm);

    // Collect interferers overlapping this frame at this receiver. The
    // carrier-phase alignment between two unsynchronised transmitters rotates
    // with their frequency offset (paper §V-D: survival "depends on the phase
    // difference between the injected and legitimate signals"), with a
    // coherence time on the order of a byte — so the phase lottery is drawn
    // *per byte* below, which is what makes longer overlaps deadlier.
    // channel_active_ is id-ordered, which fixes the FP accumulation order
    // and the order of the fading draws.
    struct Interferer {
        const Transmission* tx;
        double power_mw;
    };
    InlineVec<Interferer, 4> interferers;
    for (Transmission* other : channel_active_[tx.channel]) {
        if (other->id == tx.id) continue;
        if (other->start >= tx.end || other->end <= tx.start) continue;
        if (other->sender == &receiver) continue;  // own TX handled by half-duplex
        interferers.push_back(Interferer{other, dbm_to_mw(rx_power_dbm(*other, receiver))});
    }
    // A byte no interferer overlaps sees only the noise floor and the
    // neutral phase, so its corruption probability is the same for the
    // whole delivery.  It still takes its own chance() draw below.
    const double p_noise_only =
        capture_.byte_corruption_prob(signal_dbm - mw_to_dbm(noise_mw), 0.5);

    Bytes bytes = pool_.acquire_copy(tx.frame.bytes);
    bool corrupted = false;
    int corrupted_bytes = 0;
    int sync_bit_errors = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const TimePoint byte_start =
            tx.start + tx.frame.preamble_time + static_cast<Duration>(i) * tx.frame.byte_time;
        const TimePoint byte_end = byte_start + tx.frame.byte_time;

        double interference_mw = noise_mw;
        double phase = 0.5;
        bool overlapped = false;
        for (const auto& intf : interferers) {
            if (intf.tx->start < byte_end && intf.tx->end > byte_start) {
                interference_mw += intf.power_mw;
                phase = rng_.next_double();  // per-byte carrier-phase lottery
                overlapped = true;
            }
        }
        const double p_corrupt =
            overlapped ? capture_.byte_corruption_prob(signal_dbm - mw_to_dbm(interference_mw),
                                                       phase)
                       : p_noise_only;
        if (rng_.chance(p_corrupt)) {
            // Flip a random bit: the CRC then fails naturally downstream.
            bytes[i] ^= static_cast<std::uint8_t>(1u << rng_.next_below(8));
            corrupted = true;
            ++corrupted_bytes;
            if (i < tx.frame.sync_bytes) ++sync_bit_errors;
        }
    }

    receiver.listen_state_.locked_tx = 0;  // receiver returns to idle listening

    const bool lost_sync = sync_bit_errors > params_.max_sync_bit_errors;
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
        decision.corrupted_bytes = corrupted_bytes;
        decision.sync_bit_errors = sync_bit_errors;
        // Buffered, not emitted: runs of lost-sync verdicts (the common case
        // in a crowded spectrum) fan out in one batched call per sink.  The
        // batch is flushed before any device handler runs, so every sink
        // still sees decisions in exactly the unbatched order.
        rx_batch_.emplace_back(decision);
    }
    if (lost_sync) {
        // The correlator never matched: nothing is delivered, exactly like a
        // real radio that misses the access address.
        BLE_LOG_TRACE("medium: ", receiver.name(), " lost sync on tx ", tx.id);
        pool_.release(std::move(bytes));
        return;
    }
    // A tolerated near-miss correlation outputs the *matched* sync word.
    for (std::size_t i = 0; i < tx.frame.sync_bytes && i < bytes.size(); ++i) {
        bytes[i] = tx.frame.bytes[i];
    }

    RxFrame rx;
    rx.bytes = std::move(bytes);
    rx.start = tx.start;
    rx.end = tx.end;
    rx.channel = tx.channel;
    rx.rssi_dbm = signal_dbm;
    rx.corrupted_by_medium = corrupted;
    rx.transmission_id = tx.id;
    flush_rx_batch();  // device code runs next: drain buffered verdicts first
    receiver.on_rx(rx);
    pool_.release(std::move(rx.bytes));  // on_rx sees a const ref; reclaim after
}

void RadioMedium::collect_garbage() {
    // Keep records around briefly so frames that overlapped them can still
    // account for their interference, then reclaim map entry, per-channel
    // slot, and payload buffer together.
    const TimePoint now = scheduler_.now();
    const TimePoint horizon = now - 10_ms;
    for (auto it = active_.begin(); it != active_.end();) {
        Transmission& tx = it->second;
        if (tx.end <= now && tx.end < horizon) {
            channel_active_[tx.channel].erase_value(&tx);
            pool_.release(std::move(tx.frame.bytes));
            it = active_.erase(it);
        } else {
            ++it;
        }
    }
}

void RadioMedium::finish_transmission(std::uint64_t tx_id) {
    // Deliberately unspanned: trivial bookkeeping whose time reads naturally
    // as sim.dispatch self-time; medium.transmit/deliver carry the profile.
    auto it = active_.find(tx_id);
    if (it == active_.end()) return;
    Transmission& tx = it->second;

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
    flush_rx_batch();  // trailing lost-sync verdicts with no on_rx after them

    collect_garbage();
    // NOTE: `tx` may be dangling from here on.

    if (sender != nullptr) {
        sender->transmitting_ = false;
        sender->on_tx_complete();
    }
}

}  // namespace ble::sim
