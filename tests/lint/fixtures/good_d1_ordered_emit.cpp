// lint-fixture-path: src/obs/fanout.cpp
//
// The compliant counterpart to bad_d1_unordered_emit.cpp: emission walks an
// attach-order vector, and the unordered map is a lookup index that is only
// ever iterated for maintenance that feeds no events.  Scans fully clean.
#include <cstddef>
#include <unordered_map>
#include <vector>

namespace ble::obs {

struct Event {
    int id = 0;
};

struct Subscriber {
    int priority = 0;
};

struct Bus {
    void emit(const Event& event);
};

class Fanout {
public:
    void flush(const Event& event);
    std::size_t slot(int id) const { return index_.at(id); }
    void prune();

private:
    /// Attach order: the single iteration surface for emission.
    std::vector<Subscriber*> ordered_;
    /// id -> slot, lookup-only (value-keyed; never iterated into an emit).
    std::unordered_map<int, std::size_t> index_;
    Bus bus_;
};

void Fanout::flush(const Event& event) {
    for (Subscriber* sub : ordered_) {
        (void)sub;
        bus_.emit(event);
    }
}

void Fanout::prune() {
    // Iterating the unordered map without emitting is fine: erasure order
    // feeds no trace.
    for (auto& [id, slot] : index_) {
        (void)id;
        (void)slot;
    }
}

}  // namespace ble::obs
