#include "phy/crc.hpp"

#include <array>

namespace ble::phy {

namespace {
// Taps of x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1 in the shifted-right
// LFSR formulation (ubertooth/BTLEJack-compatible, validated against
// over-the-air captures by those projects).
constexpr std::uint32_t kLfsrMask = 0x5A6000;
constexpr std::uint32_t k24Bits = 0xFFFFFF;

/// Eight LFSR steps of every possible low byte of (state ^ input), with a
/// zero upper state: the byte-wise form of the reflected LFSR is then
/// state = (state >> 8) ^ kTable[(state ^ byte) & 0xFF].
constexpr std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t state = i;
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint32_t next = state & 1;
            state >>= 1;
            if (next != 0) state ^= (1u << 23) | kLfsrMask;
        }
        table[i] = state;
    }
    return table;
}();

/// Bytes consumed per step of the sliced loop.
constexpr std::size_t kStride = 8;

/// kSliced[k][i]: the state after byte i and then k zero bytes, from a zero
/// state.  The CRC is linear, so a stride's new state is the XOR of each
/// byte's contribution through the bytes after it, and the incoming 24-bit
/// state is shifted out within three bytes, so it enters only through the
/// stride's first three.
constexpr std::array<std::array<std::uint32_t, 256>, kStride> kSliced = [] {
    std::array<std::array<std::uint32_t, 256>, kStride> tables{};
    tables[0] = kTable;
    for (std::size_t k = 1; k < kStride; ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ kTable[prev & 0xFF];
        }
    }
    return tables;
}();
}  // namespace

std::uint32_t crc24(BytesView pdu, std::uint32_t init) noexcept {
    std::uint32_t state = init & k24Bits;
    const std::uint8_t* p = pdu.data();
    std::size_t left = pdu.size();
    for (; left >= kStride; left -= kStride, p += kStride) {
        state = kSliced[7][(state ^ p[0]) & 0xFF] ^ kSliced[6][((state >> 8) ^ p[1]) & 0xFF] ^
                kSliced[5][(state >> 16) ^ p[2]] ^ kSliced[4][p[3]] ^ kSliced[3][p[4]] ^
                kSliced[2][p[5]] ^ kSliced[1][p[6]] ^ kSliced[0][p[7]];
    }
    for (; left > 0; --left, ++p) state = (state >> 8) ^ kTable[(state ^ *p) & 0xFF];
    return state;
}

std::uint32_t crc24_reverse(BytesView pdu, std::uint32_t crc) noexcept {
    // Exact inverse of one forward bit-step:
    //   forward: next = (state ^ in) & 1; state >>= 1;
    //            if next { state |= 1<<23; state ^= kLfsrMask; }
    // kLfsrMask bit 23 is 0, so after a forward step bit 23 == next.
    std::uint32_t state = crc & k24Bits;
    for (std::size_t i = pdu.size(); i-- > 0;) {
        std::uint8_t cur = pdu[i];
        for (int bit = 7; bit >= 0; --bit) {
            const std::uint32_t next = (state >> 23) & 1;
            if (next != 0) {
                state ^= kLfsrMask;
                state &= ~(1u << 23);
            }
            const std::uint32_t in = (static_cast<std::uint32_t>(cur) >> bit) & 1;
            state = ((state << 1) & k24Bits) | (next ^ in);
        }
    }
    return state;
}

}  // namespace ble::phy
