#include "core/sniffer.hpp"

#include <cmath>

#include "phy/access_address.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"

namespace injectable {

using namespace ble;

namespace {
constexpr sim::Channel kAdvChannels[3] = {37, 38, 39};
/// Frames closer than this belong to the same connection event.
constexpr Duration kEventClusterGap = 3_ms;
/// If the advertiser goes quiet on the followed channel, return to 37.
constexpr Duration kFollowTimeout = 120_ms;
}  // namespace

// --- AdvSniffer ---

AdvSniffer::AdvSniffer(AttackerRadio& radio) : radio_(radio) {}

AdvSniffer::~AdvSniffer() { stop(); }

void AdvSniffer::start() {
    running_ = true;
    channel_index_ = 0;
    radio_.rx_handler = [this](const sim::RxFrame& frame) { handle_rx(frame); };
    radio_.listen(kAdvChannels[0]);
    rearm_home_channel();
}

void AdvSniffer::stop() {
    if (!running_) return;  // idempotent: a later stop (e.g. the destructor)
                            // must not clobber handlers rebound by others
    running_ = false;
    guard_.reset();
    if (timer_ != sim::kInvalidEvent) {
        radio_.scheduler().cancel(timer_);
        timer_ = sim::kInvalidEvent;
    }
    radio_.rx_handler = nullptr;
    radio_.stop_listening();
}

void AdvSniffer::rearm_home_channel() {
    if (timer_ != sim::kInvalidEvent) radio_.scheduler().cancel(timer_);
    timer_ = guard_.after(kFollowTimeout, [this] {
        if (!running_) return;
        channel_index_ = 0;
        radio_.listen(kAdvChannels[0]);
        rearm_home_channel();
    });
}

void AdvSniffer::handle_rx(const sim::RxFrame& frame) {
    if (!running_) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != phy::kAdvertisingAccessAddress) return;
    if (!raw->crc_ok(phy::kAdvertisingCrcInit)) return;
    if (!link::AdvPdu::parse(raw->pdu, adv_rx_)) return;
    const link::AdvPdu& pdu = adv_rx_;

    if (on_advertisement) on_advertisement(pdu, frame.end, frame.channel);

    if (pdu.type == link::AdvPduType::kConnectReq) {
        if (link::ConnectReqPdu::parse(pdu, connect_req_)) {
            SniffedConnection sniffed;
            sniffed.params = connect_req_.params;
            sniffed.time_reference = frame.end;
            sniffed.from_connect_req = true;
            if (on_connection) on_connection(sniffed, connect_req_);
        }
        return;
    }

    if (pdu.type == link::AdvPduType::kAdvInd) {
        // Sniffle-style follow: a CONNECT_REQ (or SCAN_REQ) starts exactly
        // T_IFS after this ADV_IND, on this channel — if nothing has started
        // by then, hop to the advertiser's next channel before its next PDU
        // (~T_IFS + frame + turnaround later). If a frame *is* inbound, stay:
        // it is the packet we are hunting.
        channel_index_ = (channel_index_ + 1) % 3;
        const sim::Channel next = kAdvChannels[channel_index_];
        guard_.at(frame.end + kTifs + 20_us, [this, next] {
            if (!running_) return;
            if (!radio_.receiving()) radio_.listen(next);
        });
        rearm_home_channel();
    }
}

// --- ConnectionRecovery ---

std::uint8_t mod37_inverse(std::uint8_t value) noexcept {
    const std::uint8_t v = value % 37;
    if (v == 0) return 0;
    for (std::uint8_t candidate = 1; candidate < 37; ++candidate) {
        if ((v * candidate) % 37 == 1) return candidate;
    }
    return 0;  // unreachable: 37 is prime
}

ConnectionRecovery::ConnectionRecovery(AttackerRadio& radio, Params params)
    : radio_(radio), params_(params) {}

ConnectionRecovery::~ConnectionRecovery() { stop(); }

void ConnectionRecovery::start() {
    running_ = true;
    radio_.rx_handler = [this](const sim::RxFrame& frame) { handle_rx(frame); };
    radio_.listen(params_.first_channel);
    if (on_progress) on_progress("aa");
}

void ConnectionRecovery::stop() {
    if (!running_) return;  // idempotent; see AdvSniffer::stop()
    running_ = false;
    radio_.rx_handler = nullptr;
    radio_.stop_listening();
}

void ConnectionRecovery::handle_rx(const sim::RxFrame& frame) {
    if (!running_) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw) return;

    // Phase 1 — access address: every data frame leaks it in the clear. Empty
    // data PDUs (llid 01, len 0) are the reliable tell of connection traffic.
    if (!aa_) {
        if (raw->access_address == phy::kAdvertisingAccessAddress) return;
        const bool looks_like_data =
            raw->pdu.size() >= 2 && (raw->pdu[0] & 0b11) != 0b00;
        if (!looks_like_data) return;
        if (++aa_sightings_[raw->access_address] >= params_.aa_confirmations) {
            aa_ = raw->access_address;
            if (on_progress) on_progress("crc");
        }
        return;
    }
    if (raw->access_address != *aa_) return;

    // Phase 2 — CRCInit: run the CRC LFSR backwards from the received CRC
    // (valid frames all yield the same init).
    if (!crc_init_) {
        const std::uint32_t candidate = phy::crc24_reverse(raw->pdu, raw->crc);
        if (++crc_candidates_[candidate] >= 2) {
            crc_init_ = candidate;
            if (on_progress) on_progress("interval");
        }
        return;
    }

    // Anchor clustering: the first frame after a gap is the master's.
    const bool new_event = frame.start - last_frame_end_ > kEventClusterGap;
    last_frame_end_ = frame.end;
    if (!new_event) return;

    // Phase 3 — hop interval: with all 37 channels in use, CSA#1 revisits a
    // given channel every 37 events.
    if (!hop_interval_) {
        anchors_first_channel_.push_back(frame.start);
        // Three sightings give two deltas: the minimum filters out a missed
        // revisit (which would double the apparent period).
        if (anchors_first_channel_.size() >= 3) {
            Duration min_delta = 0;
            for (std::size_t i = 1; i < anchors_first_channel_.size(); ++i) {
                const Duration d =
                    anchors_first_channel_[i] - anchors_first_channel_[i - 1];
                if (min_delta == 0 || d < min_delta) min_delta = d;
            }
            const double units =
                static_cast<double>(min_delta) / (37.0 * static_cast<double>(kUnit1250us));
            const auto interval = static_cast<std::uint16_t>(std::llround(units));
            if (interval >= 6) {
                hop_interval_ = interval;
                on_second_channel_ = true;
                radio_.listen(params_.second_channel);
                if (on_progress) on_progress("hop");
            }
        }
        return;
    }

    // Phase 4 — hop increment: measure how many events separate channel c
    // from channel c+1; hopIncrement is the inverse of that count mod 37.
    if (!hop_increment_ && on_second_channel_) {
        const Duration interval = connection_interval(*hop_interval_);
        const Duration since = frame.start - anchors_first_channel_.back();
        const auto events =
            static_cast<std::uint32_t>(std::llround(static_cast<double>(since) /
                                                    static_cast<double>(interval)));
        const auto delta = static_cast<std::uint8_t>(events % 37);
        const std::uint8_t channel_gap = static_cast<std::uint8_t>(
            (params_.second_channel + 37 - params_.first_channel) % 37);
        if (delta == 0) return;  // measurement glitch; wait for next sighting
        // delta * hop == channel_gap (mod 37)  =>  hop = gap * delta^-1.
        const std::uint8_t hop = static_cast<std::uint8_t>(
            (channel_gap * mod37_inverse(delta)) % 37);
        if (hop < 5 || hop > 16) return;  // outside the legal range: retry
        hop_increment_ = hop;
        finish(frame.start);
    }
}

void ConnectionRecovery::finish(TimePoint anchor) {
    SniffedConnection sniffed;
    sniffed.params.access_address = *aa_;
    sniffed.params.crc_init = *crc_init_;
    sniffed.params.hop_interval = *hop_interval_;
    sniffed.params.hop_increment = *hop_increment_;
    sniffed.params.channel_map = link::ChannelMap{};  // technique assumes full map
    sniffed.params.master_sca = params_.assumed_master_sca_field;
    sniffed.time_reference = anchor;
    sniffed.from_connect_req = false;
    sniffed.recovered_unmapped_channel = params_.second_channel;
    running_ = false;
    radio_.rx_handler = nullptr;
    radio_.stop_listening();
    if (on_recovered) on_recovered(sniffed);
}

}  // namespace injectable
