// Hex encoding helpers used by logs, tests and the dongle wire protocol.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace ble {

/// "0a1b2c" — lowercase, no separators.
std::string to_hex(BytesView data);
/// Appends to_hex(data) to `out`.
void append_hex(std::string& out, BytesView data);
/// Writes to_hex(data) at `p`, which must have room for 2 * data.size()
/// chars; returns the end.
char* write_hex(char* p, BytesView data) noexcept;

/// Accepts upper/lower case; rejects odd length or non-hex characters.
std::optional<Bytes> from_hex(const std::string& hex);

}  // namespace ble
