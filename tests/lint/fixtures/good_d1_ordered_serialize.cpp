// lint-fixture-path: src/world/record_writer.cpp
//
// The compliant counterpart to bad_d1_unordered_serialize.cpp: records are
// serialized out of trial-index order (a vector) and an ordered map, so the
// byte stream is the same on every run; the unordered map is a lookup index
// that is only ever iterated for bookkeeping that feeds no serializer.
// Scans fully clean.
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace injectable::world {

struct Outcome {
    std::uint64_t seed = 0;
    bool success = false;
};

std::string to_json(const Outcome& outcome);
void append_json_escaped(std::string& out, const std::string& value);

class RecordWriter {
public:
    std::string dump_records() const;
    std::string dump_labels() const;
    std::size_t slot(std::uint64_t seed) const { return index_.at(seed); }
    std::size_t live_count() const;

private:
    /// Trial-index order: the single iteration surface for serialization.
    std::vector<Outcome> ordered_;
    /// Key-sorted labels: std::map iteration order is deterministic.
    std::map<std::string, int> labels_;
    /// seed -> slot, lookup-only (never iterated into a serializer).
    std::unordered_map<std::uint64_t, std::size_t> index_;
};

std::string RecordWriter::dump_records() const {
    std::string out;
    for (const Outcome& outcome : ordered_) {
        out += to_json(outcome);
        out += '\n';
    }
    return out;
}

std::string RecordWriter::dump_labels() const {
    std::string out;
    for (const auto& [label, count] : labels_) {
        (void)count;
        append_json_escaped(out, label);
    }
    return out;
}

std::size_t RecordWriter::live_count() const {
    // Iterating the unordered index without serializing is fine: the count
    // is order-free.
    std::size_t n = 0;
    for (const auto& [seed, slot] : index_) {
        (void)seed;
        (void)slot;
        ++n;
    }
    return n;
}

}  // namespace injectable::world
