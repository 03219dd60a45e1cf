// lint-fixture-path: src/world/record_writer.cpp
//
// D1-serializer fixture: result serialization from inside iteration over a
// std::unordered_* container.  Nothing here emits an event — the values go
// straight into a JSON record and a wire frame — but the failure mode is
// the same as for emission: hash order is unspecified, so the serialized
// byte stream varies across standard libraries, hash seeds and runs, and no
// rerun or worker count reproduces the record byte for byte.  The extension
// must flag all three loops.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace injectable::world {

struct Outcome {
    std::uint64_t seed = 0;
    bool success = false;
};

std::string to_json(const Outcome& outcome);
void append_json_escaped(std::string& out, const std::string& value);
std::string encode_frame(std::uint32_t type, const std::string& payload);

class RecordWriter {
public:
    std::string dump_records() const;
    std::string dump_labels() const;
    std::string dump_frames() const;

private:
    std::unordered_map<std::uint64_t, Outcome> by_seed_;
    std::unordered_set<std::string> labels_;
};

std::string RecordWriter::dump_records() const {
    std::string out;
    for (const auto& [seed, outcome] : by_seed_) {
        (void)seed;
        out += to_json(outcome);
        out += '\n';
    }
    return out;
}

std::string RecordWriter::dump_labels() const {
    std::string out;
    for (const std::string& label : labels_) append_json_escaped(out, label);
    return out;
}

std::string RecordWriter::dump_frames() const {
    std::string out;
    for (const auto& [seed, outcome] : by_seed_) {
        (void)seed;
        out += encode_frame(3, to_json(outcome));
    }
    return out;
}

}  // namespace injectable::world
