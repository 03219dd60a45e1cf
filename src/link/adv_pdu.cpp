#include "link/adv_pdu.hpp"

namespace ble::link {

namespace {
// Worst-case ppm for SCA field values 0..7 (Vol 6, Part B, Table 2.2).
constexpr double kScaPpm[8] = {500, 250, 150, 100, 75, 50, 30, 20};
}  // namespace

double sca_field_to_ppm(std::uint8_t sca_field) noexcept { return kScaPpm[sca_field & 7]; }

std::uint8_t ppm_to_sca_field(double ppm) noexcept {
    for (std::uint8_t field = 7;; --field) {
        if (kScaPpm[field] >= ppm || field == 0) return field;
    }
}

void ConnectReqPdu::write_to(AdvPdu& out) const {
    ByteWriter w(std::move(out.payload));
    initiator.write_to(w);
    advertiser.write_to(w);
    w.write_u32(params.access_address);
    w.write_u24(params.crc_init);
    w.write_u8(params.win_size);
    w.write_u16(params.win_offset);
    w.write_u16(params.hop_interval);
    w.write_u16(params.latency);
    w.write_u16(params.timeout);
    params.channel_map.write_to(w);
    w.write_u8(static_cast<std::uint8_t>((params.hop_increment & 0x1F) |
                                         ((params.master_sca & 0x07) << 5)));

    out.type = AdvPduType::kConnectReq;
    out.ch_sel = params.use_csa2;
    out.tx_add = initiator.type() == AddressType::kRandom;
    out.rx_add = advertiser.type() == AddressType::kRandom;
    out.payload = w.take();
}

AdvPdu ConnectReqPdu::to_adv_pdu() const {
    AdvPdu pdu;
    write_to(pdu);
    return pdu;
}

bool ConnectReqPdu::parse(const AdvPdu& header, BytesView payload, ConnectReqPdu& out) noexcept {
    if (header.type != AdvPduType::kConnectReq || payload.size() != 34) return false;
    ByteReader r(payload);
    auto init = DeviceAddress::read_from(
        r, header.tx_add ? AddressType::kRandom : AddressType::kPublic);
    auto adv = DeviceAddress::read_from(
        r, header.rx_add ? AddressType::kRandom : AddressType::kPublic);
    if (!init || !adv) return false;
    out.initiator = *init;
    out.advertiser = *adv;
    out.params.access_address = *r.read_u32();
    out.params.crc_init = *r.read_u24();
    out.params.win_size = *r.read_u8();
    out.params.win_offset = *r.read_u16();
    out.params.hop_interval = *r.read_u16();
    out.params.latency = *r.read_u16();
    out.params.timeout = *r.read_u16();
    out.params.channel_map = ChannelMap::read_from(r);
    const auto hop_sca = r.read_u8();
    if (!r.ok() || !hop_sca) return false;
    out.params.hop_increment = *hop_sca & 0x1F;
    out.params.master_sca = (*hop_sca >> 5) & 0x07;
    out.params.use_csa2 = header.ch_sel;
    return true;
}

void AdvDataPdu::write(AdvPdu& out, AdvPduType type, const DeviceAddress& advertiser,
                       BytesView data) {
    ByteWriter w(std::move(out.payload));
    advertiser.write_to(w);
    w.write_bytes(data);
    out.type = type;
    out.ch_sel = false;
    out.tx_add = advertiser.type() == AddressType::kRandom;
    out.rx_add = false;
    out.payload = w.take();
}

AdvPdu AdvDataPdu::to_adv_pdu() const {
    AdvPdu pdu;
    pdu.payload.reserve(kDeviceAddressBytes + data.size());
    write(pdu, type, advertiser, data);
    return pdu;
}

std::optional<DeviceAddress> AdvDataPdu::advertiser_of(const AdvPdu& pdu) noexcept {
    if (pdu.payload.size() < kDeviceAddressBytes ||
        pdu.payload.size() > kMaxAdvPayloadBytes)
        return std::nullopt;
    ByteReader r(pdu.payload);
    return DeviceAddress::read_from(r, pdu.tx_add ? AddressType::kRandom
                                                  : AddressType::kPublic);
}

std::optional<AdvDataPdu> AdvDataPdu::parse(const AdvPdu& pdu) noexcept {
    const auto advertiser = advertiser_of(pdu);
    if (!advertiser) return std::nullopt;
    AdvDataPdu out;
    out.type = pdu.type;
    out.advertiser = *advertiser;
    out.data.assign(pdu.payload.begin() + kDeviceAddressBytes, pdu.payload.end());
    return out;
}

Bytes make_adv_name(const std::string& name) {
    ByteWriter w(2 + name.size());
    w.write_u8(static_cast<std::uint8_t>(name.size() + 1));
    w.write_u8(0x09);  // AD type: complete local name
    for (char c : name) w.write_u8(static_cast<std::uint8_t>(c));
    return w.take();
}

std::optional<std::string> parse_adv_name(BytesView ad_data) {
    ByteReader r(ad_data);
    while (r.remaining() >= 2) {
        const auto len = r.read_u8();
        if (!len || *len == 0) return std::nullopt;
        const auto type = r.read_u8();
        if (!type) return std::nullopt;
        auto body = r.read_bytes(*len - 1);
        if (!body) return std::nullopt;
        if (*type == 0x09 || *type == 0x08) {
            return std::string(body->begin(), body->end());
        }
    }
    return std::nullopt;
}

}  // namespace ble::link
