// Emulated commercial devices (paper §VI-A): a connected lightbulb, a keyfob
// and a smartwatch. Each installs a GATT database with the same *shape* the
// paper reverse-engineered — a vendor write-protocol for the bulb, the
// Immediate Alert service for the keyfob, an alert/SMS characteristic for the
// watch — and exposes observable state, so attack scenarios can be validated
// by their side effects ("turning the bulb on and off, changing its colour…",
// "making the keyfob ring", "transmitting a forged SMS to the watch").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "att/server.hpp"
#include "gatt/builder.hpp"

namespace ble::gatt {

/// Vendor write-protocol of the emulated lightbulb. A command is
/// [opcode | args | padding...]; trailing padding is ignored, which lets the
/// sensitivity benches pick exact payload sizes like the paper's 4/9/14/16.
class LightbulbProfile {
public:
    struct State {
        bool powered = true;
        std::uint8_t r = 255, g = 255, b = 255;
        std::uint8_t brightness = 100;
        int commands_received = 0;
    };

    enum Command : std::uint8_t {
        kSetPower = 0x01,
        kSetColor = 0x02,
        kSetBrightness = 0x03,
    };

    /// Installs GAP + the vendor service into `server`.
    void install(att::AttServer& server, const std::string& name = "SmartBulb");

    /// Back to the state install() leaves (handles kept, on_change cleared);
    /// the server restores the attribute values (AttServer::restore_values).
    void restart() noexcept {
        state_ = State{};
        on_change = nullptr;
    }

    [[nodiscard]] const State& state() const noexcept { return state_; }
    [[nodiscard]] std::uint16_t control_handle() const noexcept { return control_handle_; }
    [[nodiscard]] std::uint16_t name_handle() const noexcept { return name_handle_; }

    /// Fired on every accepted command (the "observable effect").
    std::function<void(const State&)> on_change;

    // Command builders (padding extends the ATT value with ignored bytes).
    static Bytes cmd_set_power(bool on, std::size_t pad = 0);
    static Bytes cmd_set_color(std::uint8_t r, std::uint8_t g, std::uint8_t b,
                               std::size_t pad = 0);
    static Bytes cmd_set_brightness(std::uint8_t level, std::size_t pad = 0);

private:
    std::optional<att::ErrorCode> handle_command(BytesView value);

    State state_;
    std::uint16_t control_handle_ = 0;
    std::uint16_t name_handle_ = 0;
};

/// Keyfob with the Immediate Alert service: writing the Alert Level makes it
/// ring.
class KeyfobProfile {
public:
    void install(att::AttServer& server, const std::string& name = "KeyFob");

    [[nodiscard]] bool ringing() const noexcept { return alert_level_ > 0; }
    [[nodiscard]] std::uint8_t alert_level() const noexcept { return alert_level_; }
    [[nodiscard]] std::uint16_t alert_handle() const noexcept { return alert_handle_; }
    [[nodiscard]] std::uint16_t name_handle() const noexcept { return name_handle_; }

    std::function<void(std::uint8_t)> on_alert;

private:
    std::uint8_t alert_level_ = 0;
    std::uint16_t alert_handle_ = 0;
    std::uint16_t name_handle_ = 0;
};

/// Smartwatch receiving SMS-style alerts: the paired phone writes
/// [sender '\0' body] to the New Alert characteristic; the watch stores and
/// displays them.
class SmartwatchProfile {
public:
    struct Sms {
        std::string sender;
        std::string body;
    };

    void install(att::AttServer& server, const std::string& name = "SmartWatch");

    [[nodiscard]] const std::vector<Sms>& messages() const noexcept { return messages_; }
    [[nodiscard]] std::uint16_t sms_handle() const noexcept { return sms_handle_; }
    [[nodiscard]] std::uint16_t name_handle() const noexcept { return name_handle_; }
    [[nodiscard]] std::uint16_t battery_handle() const noexcept { return battery_handle_; }

    std::function<void(const Sms&)> on_sms;

    static Bytes encode_sms(const std::string& sender, const std::string& body);
    static std::optional<Sms> decode_sms(BytesView value);

private:
    std::vector<Sms> messages_;
    std::uint16_t sms_handle_ = 0;
    std::uint16_t name_handle_ = 0;
    std::uint16_t battery_handle_ = 0;
};

/// HID-over-GATT keyboard (paper §IX, future work: "expose a malicious
/// keyboard profile instead of the original one, and inject keystrokes to the
/// Master by implementing HID over GATT"). Usable both as a benign keyboard
/// peripheral and as the attacker's forged profile after a slave hijack.
class HidKeyboardProfile {
public:
    void install(att::AttServer& server, const std::string& name = "BLE Keyboard");

    [[nodiscard]] std::uint16_t report_handle() const noexcept { return report_handle_; }
    [[nodiscard]] std::uint16_t report_map_handle() const noexcept {
        return report_map_handle_;
    }
    [[nodiscard]] std::uint16_t name_handle() const noexcept { return name_handle_; }

    /// 8-byte boot keyboard input report for one ASCII character
    /// ([modifiers | reserved | keycode1 .. keycode6]); unsupported
    /// characters map to an empty report.
    static Bytes key_press_report(char c);
    /// The all-zero "key released" report.
    static Bytes key_release_report();
    /// Decodes a report back to the ASCII character it encodes (0 if none) —
    /// what a host HID driver would type.
    static char decode_report(BytesView report);

private:
    std::uint16_t report_handle_ = 0;
    std::uint16_t report_map_handle_ = 0;
    std::uint16_t name_handle_ = 0;
};

}  // namespace ble::gatt
