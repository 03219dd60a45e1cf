// RadioMedium: the shared 2.4 GHz channel.
//
// Mechanics (mirrors how a real BLE receiver behaves, at byte granularity):
//  * A receiver that is idle-listening on a channel *locks onto* the first
//    transmission that starts while it listens and arrives above sensitivity.
//    It cannot re-sync mid-frame, so a transmission already in flight when the
//    receiver opens its window is missed entirely — this is exactly why
//    window widening exists, and why the attacker's earlier frame wins the
//    race even when the legitimate master transmits moments later.
//  * When the locked transmission ends, every byte that overlapped another
//    transmission (or sits near the noise floor) is corrupted with a
//    probability from CaptureModel.  Each byte takes its own draws, but
//    capture_lottery walks the frame one overlap segment at a time (a run of
//    bytes that the same interferers overlap), with the SIR and the phase
//    band computed once per segment and noise-only draws compared with an
//    integer threshold.  A corrupted sync header (preamble /
//    access address region) suppresses delivery entirely; corruption later
//    in the frame is delivered as-is and caught by the link layer's CRC —
//    the paper's outcome (b).
//  * Devices are half-duplex: transmitting suspends listening.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_vec.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/bus.hpp"
#include "sim/capture.hpp"
#include "sim/path_loss.hpp"
#include "sim/scheduler.hpp"

namespace ble::sim {

class RadioDevice;

/// BLE channel index, 0..36 data + 37..39 advertising.
using Channel = std::uint8_t;
constexpr Channel kNumChannels = 40;

/// The most bytes an AirFrame carries: access address (4), PDU header (2),
/// the longest payload its 8-bit length field allows (255) and CRC (3).
constexpr std::size_t kMaxAirFrameBytes = 4 + 2 + 255 + 3;

/// A fully serialized over-the-air frame, PHY-agnostic from the medium's
/// point of view: opaque bytes plus explicit timing.
struct AirFrame {
    /// Access address + PDU + CRC (unwhitened; whitening is a PHY detail that
    /// is bijective per channel, so the medium carries logical bytes).
    Bytes bytes;
    /// Airtime of the preamble preceding bytes[0] (8 µs for LE 1M).
    Duration preamble_time = 8_us;
    /// Airtime of one byte (8 µs for LE 1M); positive.
    Duration byte_time = 8_us;
    /// Corruption within the first `sync_bytes` of `bytes` (plus the
    /// preamble) prevents receiver sync: the frame is silently lost.
    std::size_t sync_bytes = 4;

    [[nodiscard]] Duration duration() const noexcept {
        return preamble_time + static_cast<Duration>(bytes.size()) * byte_time;
    }
};

/// What a locked receiver gets when the frame ends.
struct RxFrame {
    Bytes bytes;  ///< possibly corrupted copy of AirFrame::bytes
    TimePoint start = 0;
    TimePoint end = 0;
    Channel channel = 0;
    double rssi_dbm = -127.0;
    /// God-view flag: true if the medium corrupted at least one byte.  The
    /// protocol stack must NOT consult this (it re-checks CRC like real
    /// hardware); it exists for tests and for validating the paper's Eq. 7
    /// success heuristic against ground truth.
    bool corrupted_by_medium = false;
    /// God-view: id of the transmission this frame came from.
    std::uint64_t transmission_id = 0;
};

/// Per-device receiver state.  Lives inside RadioDevice (not in a
/// medium-side map) so the medium's only iteration surfaces are its
/// attach-ordered interest lists: receiver walk order — which decides RNG
/// draw order — can never depend on heap layout (the PR 3 determinism bug
/// class).
struct ListenState {
    Channel channel = 0;
    bool active = false;
    /// Transmission the receiver is locked on (0 = idle).
    std::uint64_t locked_tx = 0;
    /// Monotonic attach sequence number, assigned by RadioMedium::attach (and
    /// the same again when a restarted medium's devices re-attach in order).
    /// The per-channel interest lists sort by it, so a channel's receivers
    /// are always walked in attach order — the property that keeps RNG draw
    /// order (and therefore traces) bit-stable.
    std::uint64_t attach_order = 0;
    /// Mean path loss from recent senders to this receiver, direct-mapped by
    /// the sender's attach order (0 = empty slot).  Positions and walls
    /// cannot change once a medium exists, and attach orders are reused
    /// only by RadioMedium::restart(), after which every device attaches
    /// again with an empty memo, so an entry never goes stale.  A receiver
    /// in the paper's worlds hears its peer, the attacker and little else:
    /// four slots leave only each pair's first lookup to miss (hit share 99%
    /// on far_race, 92% on exp1_setup).  A stadium_crowd receiver hears a
    /// crowd and gains nothing: 2% of lookups hit, 6% with 64 slots.
    struct MeanLoss {
        std::uint64_t sender = 0;
        double db = 0.0;
    };
    static constexpr std::size_t kMeanLossSlots = 4;
    std::array<MeanLoss, kMeanLossSlots> mean_loss{};
};

/// An interferer as the capture lottery sees it.
struct Interference {
    TimePoint start = 0;
    TimePoint end = 0;
    double power_mw = 0.0;  ///< at the receiver
};

/// What the capture lottery did to one delivery.
struct LotteryOutcome {
    int corrupted_bytes = 0;
    int sync_bit_errors = 0;  ///< corrupted bytes among the first sync_bytes
};

/// The capture lottery of one delivery: sets `bytes` to `frame.bytes` (on
/// air from `start`) and flips a random bit in each byte it corrupts.  Per
/// byte it draws one phase per overlapping interferer, in the id order of
/// `interferers`, then `u`, then a bit index on a hit: the draws and verdicts
/// of a byte-at-a-time walk.  `noise_dbm` is `noise_mw` converted back.
LotteryOutcome capture_lottery(const AirFrame& frame, TimePoint start,
                               std::span<const Interference> interferers, double signal_dbm,
                               double noise_mw, double noise_dbm, const CaptureModel& capture,
                               Rng& rng, Bytes& bytes);

struct MediumParams {
    double noise_floor_dbm = -100.0;
    double sensitivity_dbm = -94.0;
    /// Bit errors tolerated by the sync-word correlator (real BLE receivers
    /// accept an access address with a couple of flipped bits and output the
    /// *matched* pattern). Beyond this, the frame is silently lost.
    int max_sync_bit_errors = 2;
};

class RadioMedium {
public:
    RadioMedium(Scheduler& scheduler, Rng rng, PathLossModel path_loss = PathLossModel{},
                CaptureModel capture = CaptureModel{}, MediumParams params = {});

    RadioMedium(const RadioMedium&) = delete;
    RadioMedium& operator=(const RadioMedium&) = delete;

    /// Back to a new medium's state on `rng`: no transmission (records move
    /// to the spare list with their buffers), no listener, no bus subscriber,
    /// tx ids and attach orders rewound.  Every device still attached must
    /// then re-attach (RadioDevice::restart) in the order it was built, so
    /// it gets back the attach order it had.
    void restart(Rng rng);

    /// Called by RadioDevice's constructor/destructor and restart().
    void attach(RadioDevice& device);
    void detach(RadioDevice& device) noexcept;

    /// Device API (normally called through RadioDevice helpers).
    void start_listening(RadioDevice& device, Channel channel);
    void stop_listening(RadioDevice& device) noexcept;
    [[nodiscard]] bool is_receiving(const RadioDevice& device) const noexcept;
    /// Copies `frame` into a recycled record, so a caller may reuse it.
    std::uint64_t transmit(RadioDevice& device, Channel channel, const AirFrame& frame);

    [[nodiscard]] const MediumParams& params() const noexcept { return params_; }
    [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

    /// Number of transmissions currently in flight (all channels).
    [[nodiscard]] std::size_t active_transmissions() const noexcept { return active_.size(); }

    /// Per-channel interest list type: inline capacity covers the sparse
    /// common case (a handful of listeners / frames per channel), dense
    /// channels spill to the heap once and keep the block.
    using ListenerList = InlineVec<RadioDevice*, 4>;

    /// Devices currently listening on `channel`, in attach order (the
    /// delivery walk order; exposed for tests).
    [[nodiscard]] const ListenerList& listeners_on(Channel channel) const noexcept {
        return listeners_[channel];
    }

    /// The per-world observation stream.  The medium emits obs::TxStart for
    /// every transmission and obs::RxDecision for every capture verdict; the
    /// other layers (link, ids, world) publish their events here too, so one
    /// subscriber sees the whole trial.
    [[nodiscard]] obs::EventBus& bus() noexcept { return bus_; }

private:
    struct RxPower {
        /// ListenState::attach_order of the receiver: never reused while a
        /// record is in use (restart() retires every record before it
        /// rewinds the orders), so a device built at a dead one's address
        /// cannot inherit its power.
        std::uint64_t receiver;
        double dbm;
    };
    /// One transmission's record.  Records are recycled: transmit refills a
    /// reclaimed one, whose frame buffer and rx-power memo keep their
    /// capacity, so steady traffic allocates nothing.
    struct Transmission {
        std::uint64_t id = 0;
        RadioDevice* sender = nullptr;
        Channel channel = 0;
        TimePoint start = 0;
        TimePoint end = 0;
        AirFrame frame;
        /// Memoized received power per receiver (one fading draw per pair),
        /// cleared when the record is reused.  A frame reaches a handful of
        /// co-channel receivers, so a linear scan of an inline array beats
        /// hashing; it allocates only past four receivers.
        InlineVec<RxPower, 4> rx_power_dbm;
    };

    /// Draws the power of `tx` at `receiver` and appends it to the memo.
    double draw_rx_power(Transmission& tx, RadioDevice& receiver);
    /// The memoized power of `tx` at `receiver`, drawn on first use.
    double rx_power_dbm(Transmission& tx, RadioDevice& receiver);
    /// Mean path loss from `sender` to `receiver`, memoized per receiver.
    double mean_loss_db(const RadioDevice& sender, RadioDevice& receiver);
    void finish_transmission(std::uint64_t tx_id);
    void deliver(Transmission& tx, RadioDevice& receiver);
    void insert_listener(RadioDevice& device, Channel channel);
    void remove_listener(RadioDevice& device, Channel channel) noexcept;
    void collect_garbage();

    Scheduler& scheduler_;
    Rng rng_;
    PathLossModel path_loss_;
    CaptureModel capture_;
    MediumParams params_;
    /// The noise floor in mW, and that value converted back to dBm: the
    /// round trip can differ from params_.noise_floor_dbm in the last bit,
    /// and the noise-only SIR is taken against it.
    double noise_mw_;
    double noise_dbm_;
    obs::EventBus bus_;

    /// The scalars restart() sets back (the containers below are cleared):
    /// one assignment from these values.
    struct RunState {
        std::uint64_t next_tx_id = 1;
        /// The longest airtime transmitted so far: a record that started
        /// more than this before a frame cannot overlap it.
        Duration max_duration = 0;
        std::uint64_t next_attach_order = 1;
    };
    RunState run_;
    /// Per-channel interest lists, sorted by ListenState::attach_order: the
    /// attached devices filtered to (active, channel), in attach order.
    /// Membership invariant: a device appears in listeners_[c] iff its
    /// listen_state_ is {active, channel == c}; locked_tx != 0 implies
    /// membership (locks are only granted to and cleared with listeners).
    std::array<ListenerList, kNumChannels> listeners_;
    /// In-flight records and finished ones kept for interference, ordered
    /// by transmission id (== start order) so interference sums — FP
    /// additions, order-sensitive — accumulate identically on every run and
    /// platform, and so garbage collection can stop at the first record too
    /// young to drop.  Records are heap blocks that never move while in use.
    std::vector<std::unique_ptr<Transmission>> active_;
    /// Records garbage collection or restart() reclaimed, reused last-in
    /// first-out.  Its capacity covers every record ever made, so restart()
    /// moves them all here without growing it.
    std::vector<std::unique_ptr<Transmission>> spare_;
    std::size_t records_ = 0;  ///< records ever made
    /// Per-channel view of `active_` in the same id order (append-only in id
    /// order; erasure preserves relative order), so interference collection
    /// touches co-channel transmissions only and stops at the first one that
    /// starts at or after the frame's end.
    std::array<InlineVec<Transmission*, 4>, kNumChannels> channel_active_;
    /// The per-receiver copy of a delivered frame, reused by every delivery.
    Bytes rx_bytes_;
};

}  // namespace ble::sim
