// describe_frame: a Wireshark-style one-line decode of a serialized frame —
// PDU type, flow-control bits, decoded control opcode and its parameters.
// The JSONL trace sink writes it into each TxStart's "desc" field, and
// examples/quickstart's INJECTABLE_TRACE=1 mode prints it per frame.
#pragma once

#include <string>

#include "common/bytes.hpp"

namespace ble::link {

/// Appends the decode of a serialized frame (AA + PDU + CRC) to `out`, e.g.
/// "ADV_IND (21B)" or "DATA sn=1 nesn=0 LL_TERMINATE_IND error=0x13"; a data
/// PDU's header is read in place, with no payload copy.
void append_frame_description(std::string& out, BytesView bytes);

/// The same decode as a fresh string.
[[nodiscard]] inline std::string describe_frame(BytesView bytes) {
    std::string out;
    append_frame_description(out, bytes);
    return out;
}

}  // namespace ble::link
