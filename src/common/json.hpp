// Minimal recursive JSON reader for our own machine-readable artifacts
// (INJECTABLE_JSON series records, metrics snapshots, trace meta headers).
//
// Two properties matter more than generality:
//  * Number tokens are kept verbatim (`raw`), so the accessors convert the
//    exact %.17g doubles and 64-bit seeds our writers emitted, and dump()
//    round-trips them bit-exactly.
//  * Object members preserve insertion order, so dump() of a value we wrote
//    reproduces our writers' field order byte for byte (the round-trip
//    oracle of the json tests).
//
// No third-party dependency: the container only ships the toolchain, and the
// grammar we emit is tiny (no comments, no trailing commas needed).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ble::json {

class Value {
public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::string raw;  ///< number token, verbatim from the input
    std::string str;  ///< decoded string value
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;  ///< insertion order

    [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }
    [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

    /// First member named `key`, or nullptr (objects only).
    [[nodiscard]] const Value* find(std::string_view key) const noexcept;

    // Loose accessors: return the fallback when the kind does not match.
    [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept;
    [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const noexcept;
    [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
    [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;

    // Keyed conveniences over find() for object values.
    [[nodiscard]] std::uint64_t u64(std::string_view key, std::uint64_t fallback = 0) const;
    [[nodiscard]] std::int64_t i64(std::string_view key, std::int64_t fallback = 0) const;
    [[nodiscard]] double number(std::string_view key, double fallback = 0.0) const;
    [[nodiscard]] bool boolean_at(std::string_view key, bool fallback = false) const;
    [[nodiscard]] std::string string_at(std::string_view key, std::string fallback = {}) const;

    /// Compact re-serialization (number tokens verbatim, members in stored
    /// order, strings re-escaped with append_escaped).
    void dump(std::string& out) const;
    [[nodiscard]] std::string dump() const;
};

struct ParseResult {
    bool ok = false;
    Value value;
    std::string error;
    std::size_t error_pos = 0;  ///< byte offset of the failure
};

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage is an error).
[[nodiscard]] ParseResult parse(std::string_view text);

// ---------------------------------------------------------------------------
// The one writer behind every JSONL record we emit (trace events, trace meta
// headers, metrics, series records).  Its bytes equal printf's "%lld",
// "%llu" and "%.1f" in the C locale; tests/common/json_writer_test.cpp holds
// each conversion to printf over a million seeded cases.

/// |x| × 10 rounded half to even, exactly, from x's binary value: the digits
/// "%.1f" prints, read as one integer (-0.25 gives 2, printed "-0.2").  False
/// for NaN, ±inf and |x| >= 2^56, which go to std::to_chars.
[[nodiscard]] bool exact_tenths(double x, std::uint64_t& tenths) noexcept;

// Raw-cursor writers of append_fixed1's and append_escaped's bytes: each
// writes at `p`, which must have room for the bound, and returns the end.
inline constexpr std::size_t kIntChars = 20;            ///< any long long (std::to_chars)
inline constexpr std::size_t kFixed1Chars = 320;        ///< DBL_MAX: 309 digits, sign, ".d"
inline constexpr std::size_t kEscapedCharsPerByte = 6;  ///< "\u00xx"
char* write_fixed1(char* p, double value) noexcept;
char* write_escaped(char* p, std::string_view s) noexcept;

/// Appends `s` as the body of a JSON string literal (no surrounding quotes):
/// quotes/backslashes and the short control escapes (\n \t \r \b \f) are
/// escaped, every other control byte, DEL and every non-ASCII byte becomes
/// \u00xx (Latin-1 view of the byte) — device names and frame descriptions
/// are attacker-influenced, so the output must stay valid JSON (and valid
/// UTF-8) for ANY input bytes.  Clean runs are copied whole.
void append_escaped(std::string& out, std::string_view s);
[[nodiscard]] std::string escape(std::string_view s);

/// Bare number tokens.
void append_int(std::string& out, long long value);
void append_u64(std::string& out, std::uint64_t value);
void append_fixed1(std::string& out, double value);

/// `,"key":value` object members (append_key writes the `,"key":` alone);
/// append_str escapes its value.
void append_key(std::string& out, std::string_view key);
void append_int(std::string& out, std::string_view key, long long value);
void append_u64(std::string& out, std::string_view key, std::uint64_t value);
void append_fixed1(std::string& out, std::string_view key, double value);
void append_bool(std::string& out, std::string_view key, bool value);
void append_str(std::string& out, std::string_view key, std::string_view value);

}  // namespace ble::json
