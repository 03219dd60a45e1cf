// lint-fixture-path: src/sim/medium.cpp
//
// The post-fix shape of the PR 3 code: receiver walks go through an
// attach-order vector, in-flight transmissions live in an id-ordered map,
// and the per-receiver memo is keyed by the receiver's attach index, not by
// its address.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace ble::sim {

class RadioDevice;

struct Transmission {
    std::uint64_t id = 0;
    /// Receiver attach index -> rx power: lookup-only (find/emplace).
    std::unordered_map<std::uint32_t, double> rx_power_dbm;
};

class RadioMedium {
    /// Attach order: the single iteration surface for receiver walks.
    std::vector<RadioDevice*> devices_;
    /// Value-keyed and ordered: iteration follows transmission ids.
    std::map<std::uint64_t, Transmission> active_;
    /// Value-keyed unordered containers are fine too — no heap-address order.
    std::unordered_map<std::uint64_t, int> by_id_;
};

}  // namespace ble::sim
