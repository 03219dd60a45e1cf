#include "common/hex.hpp"

namespace ble {

namespace {
constexpr char kDigits[] = "0123456789abcdef";

int nibble(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
    std::string out;
    append_hex(out, data);
    return out;
}

void append_hex(std::string& out, BytesView data) {
    const std::size_t at = out.size();
    out.resize(at + 2 * data.size());
    write_hex(out.data() + at, data);
}

char* write_hex(char* p, BytesView data) noexcept {
    for (const auto b : data) {
        *p++ = kDigits[b >> 4];
        *p++ = kDigits[b & 0xF];
    }
    return p;
}

std::optional<Bytes> from_hex(const std::string& hex) {
    if (hex.size() % 2 != 0) return std::nullopt;
    Bytes out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = nibble(hex[i]);
        const int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) return std::nullopt;
        out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return out;
}

}  // namespace ble
