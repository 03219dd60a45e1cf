#include "host/central.hpp"

namespace ble::host {

Central::Central(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                 CentralConfig config)
    : config_(std::move(config)),
      att_client_([this](BytesView pdu) {
          if (st_.connected) l2cap_.send(kAttCid, pdu);
      }),
      l2cap_(
          27,
          [this](link::Llid llid, BytesView fragment) {
              if (link::Connection* conn = connection()) conn->send_data(llid, fragment);
          },
          [this](std::uint16_t cid, BytesView sdu) {
              if (cid != kAttCid) return;
              if (const auto pdu = att::AttView::parse(sdu)) att_client_.handle_pdu(*pdu);
          }),
      rng_(rng) {
    link::LinkLayerDeviceConfig dev_cfg;
    dev_cfg.radio = config_.radio;
    dev_cfg.radio.name = config_.name;
    dev_cfg.address = link::DeviceAddress::random_static(rng_);
    dev_cfg.auto_readvertise = false;
    dev_cfg.declared_sca_ppm = config_.declared_sca_ppm;
    dev_cfg.support_csa2 = config_.support_csa2;
    device_ = std::make_unique<link::LinkLayerDevice>(scheduler, medium, rng_.fork(),
                                                      std::move(dev_cfg));
    wire_hooks();
}

void Central::restart(Rng rng) {
    rng_ = rng;
    const link::DeviceAddress address = link::DeviceAddress::random_static(rng_);
    device_->restart(rng_.fork(), address);
    att_client_.restart();
    l2cap_.reset();
    st_ = HostState{};
    on_connected = nullptr;
    on_disconnected = nullptr;
    on_event_closed = nullptr;
}

void Central::wire_hooks() {
    link::ConnectionHooks hooks;
    hooks.on_data = [this](const link::DataPdu& pdu) {
        if (st_.connected) l2cap_.handle_ll_pdu(pdu);
    };
    hooks.on_control = [this](const link::ControlPdu& pdu) { handle_control(pdu); };
    hooks.on_disconnected = [this](link::DisconnectReason reason) {
        st_.connected = false;
        l2cap_.reset();
        if (on_disconnected) on_disconnected(reason);
    };
    hooks.on_event_closed = [this](const link::ConnectionEventReport& report) {
        if (on_event_closed) on_event_closed(report);
    };
    device_->set_connection_hooks(std::move(hooks));

    device_->on_connection_established = [this](link::Connection&) {
        st_.connected = true;
        if (on_connected) on_connected();
    };
}

void Central::connect(const link::DeviceAddress& peer, link::ConnectionParams params) {
    device_->connect_to(peer, params);
}

void Central::start_encryption(const crypto::Aes128Key& ltk) {
    link::Connection* conn = connection();
    if (conn == nullptr) return;
    st_.ltk = ltk;
    link::EncReq req;
    req.rand = rng_.next_u64();
    req.ediv = static_cast<std::uint16_t>(rng_.next_below(0x10000));
    for (auto& b : req.skd_m) b = static_cast<std::uint8_t>(rng_.next_below(256));
    for (auto& b : req.iv_m) b = static_cast<std::uint8_t>(rng_.next_below(256));
    st_.enc_req = req;
    conn->send_control(req.to_control());
}

bool Central::encrypted() const noexcept {
    const auto* conn = const_cast<Central*>(this)->connection();
    return conn != nullptr && conn->encryption_enabled();
}

void Central::handle_control(const link::ControlPdu& pdu) {
    if (pdu.opcode != link::ControlOpcode::kEncRsp || !st_.enc_req || !st_.ltk) return;
    link::Connection* conn = connection();
    if (conn == nullptr) return;
    const auto rsp = link::EncRsp::parse(pdu);
    if (!rsp) return;

    crypto::SessionMaterial material;
    material.ltk = *st_.ltk;
    material.skd_m = st_.enc_req->skd_m;
    material.iv_m = st_.enc_req->iv_m;
    material.skd_s = rsp->skd_s;
    material.iv_s = rsp->iv_s;
    conn->set_crypto(std::make_shared<crypto::LinkEncryption>(material));
    st_.enc_req.reset();
    // LL_START_ENC_REQ leaves in plaintext; the Connection enables the cipher
    // for everything after it (both directions).
    conn->send_control(link::ControlPdu{link::ControlOpcode::kStartEncReq, {}});
}

}  // namespace ble::host
