// describe_frame: a Wireshark-style one-line decode of a serialized frame —
// PDU type, flow-control bits, decoded control opcode and its parameters.
// The JSONL trace sink stores it as each TxStart's "desc" field, and
// examples/quickstart's INJECTABLE_TRACE=1 mode prints it per frame.
#pragma once

#include <string>

#include "common/bytes.hpp"

namespace ble::link {

/// Decodes a serialized frame (AA + PDU + CRC), e.g. "ADV_IND (21B)" or
/// "DATA sn=1 nesn=0 LL_TERMINATE_IND error=0x13".
[[nodiscard]] std::string describe_frame(BytesView bytes);

}  // namespace ble::link
