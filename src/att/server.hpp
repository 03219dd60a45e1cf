// ATT server: "a database of attributes" (paper §III-A), answering client
// requests — and, in scenario A, the attacker's injected ones, which is the
// whole point: the server cannot tell a spoofed Write Request from a real one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "att/att_pdu.hpp"
#include "att/uuid.hpp"

namespace ble::att {

struct Attribute {
    std::uint16_t handle = 0;  // assigned by the server on add()
    Uuid type;
    Bytes value;
    bool readable = true;
    bool writable = false;
    /// Dynamic read override; when set, replaces `value` for reads.
    std::function<Bytes()> on_read;
    /// Write interceptor: return nullopt to accept (value is stored), or an
    /// error code to refuse.
    std::function<std::optional<ErrorCode>(BytesView new_value)> on_write;
};

class AttServer {
public:
    /// Appends an attribute; handles are assigned sequentially from 1.
    std::uint16_t add(Attribute attribute);

    [[nodiscard]] Attribute* find(std::uint16_t handle) noexcept;
    [[nodiscard]] const Attribute* find(std::uint16_t handle) const noexcept;
    [[nodiscard]] const std::vector<Attribute>& attributes() const noexcept { return db_; }

    /// First attribute with the given type in [start, end], or nullptr.
    [[nodiscard]] const Attribute* find_by_type(std::uint16_t start, std::uint16_t end,
                                                const Uuid& type) const noexcept;

    /// Processes one client PDU and writes the response's wire form (opcode
    /// first) into `response`, reusing its storage.  Returns false, leaving
    /// `response` unspecified, when the PDU needs no response (Write Command,
    /// Confirmation, unknown commands).  A read or write of a stored value
    /// allocates nothing once `response` has grown to the MTU.
    bool respond(AttView request, Bytes& response);

    /// respond() returning the response as an owning PDU (nullopt for none).
    std::optional<AttPdu> handle_pdu(AttView request);

    [[nodiscard]] std::uint16_t mtu() const noexcept { return mtu_; }

    /// Sets every attribute's value back to the one it was added with,
    /// reusing the value buffers.
    void restore_values();

private:
    // Each writes the response into `out`; false means there is none.
    bool handle_read(AttView request, Bytes& out);
    bool handle_write(AttView request, bool is_command, Bytes& out);
    bool handle_find_information(AttView request, Bytes& out);
    bool handle_read_by_type(AttView request, Bytes& out);
    bool handle_read_by_group_type(AttView request, Bytes& out);

    std::vector<Attribute> db_;
    std::vector<Bytes> initial_values_;  ///< db_[i]'s value when added
    std::uint16_t mtu_ = 23;
};

}  // namespace ble::att
