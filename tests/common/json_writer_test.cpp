// Differential tests of the JSON writer against the printf conversions and
// the byte-at-a-time escaper the records were first written with.  Every
// trace, meta header and metrics record goes through these functions, and
// each test runs at least a million seeded cases: one differing byte would
// move every artifact digest.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace ble::json {
namespace {

constexpr int kCases = 1'000'000;

std::string printf_fixed1(double value) {
    char buf[400];
    std::snprintf(buf, sizeof buf, "%.1f", value);
    return buf;
}

std::string fixed1(double value) {
    std::string out;
    append_fixed1(out, value);
    return out;
}

/// The escaper as it was first written: one byte, one append.
std::string reference_escape(std::string_view s) {
    std::string out;
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default: {
                const auto u = static_cast<unsigned char>(c);
                if (u < 0x20 || u >= 0x7f) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
    }
    return out;
}

TEST(JsonWriterTest, Fixed1MatchesPrintf) {
    std::vector<double> values = {0.0,
                                  -0.0,
                                  1e300,
                                  -1e300,
                                  std::numeric_limits<double>::max(),
                                  -std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::denorm_min(),
                                  -std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::min(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN(),
                                  -std::numeric_limits<double>::quiet_NaN()};
    // k/20 sits on or next to every rounding tie of one decimal (x.x5), the
    // case printf settles by the exact binary value; take one ulp either side.
    for (int k = -40000; k <= 40000; ++k) {
        const double v = k / 20.0;
        values.push_back(v);
        values.push_back(std::nextafter(v, -INFINITY));
        values.push_back(std::nextafter(v, INFINITY));
    }
    Rng rng(0x5eed'f1fe);
    while (values.size() < static_cast<std::size_t>(kCases)) {
        const std::uint64_t bits = rng.next_u64();
        switch (bits % 4) {
            case 0:  // any bit pattern: huge, tiny, NaN payloads, infinities
            case 1: values.push_back(std::bit_cast<double>(rng.next_u64())); break;
            case 2:  // subnormals of either sign
                values.push_back(std::bit_cast<double>(rng.next_u64() & 0x800F'FFFF'FFFF'FFFFULL));
                break;
            default: values.push_back(rng.uniform(-200.0, 200.0)); break;  // dBm range
        }
    }
    int mismatches = 0;
    for (const double v : values) {
        const std::string expected = printf_fixed1(v);
        const std::string got = fixed1(v);
        if (got != expected && ++mismatches <= 10) {
            ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": "
                          << got << " != printf " << expected;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriterTest, IntegersMatchPrintf) {
    std::vector<long long> values = {0,
                                     -1,
                                     1,
                                     std::numeric_limits<long long>::min(),
                                     std::numeric_limits<long long>::max(),
                                     std::numeric_limits<long long>::min() + 1,
                                     std::numeric_limits<long long>::max() - 1};
    Rng rng(0x1a7e'6e25);
    while (values.size() < static_cast<std::size_t>(kCases)) {
        // Random magnitudes of every width, not just ~19-digit ones.
        const unsigned shift = static_cast<unsigned>(rng.next_below(64));
        values.push_back(static_cast<long long>(rng.next_u64() >> shift));
    }
    int mismatches = 0;
    std::string got;
    char expected[32];
    for (const long long v : values) {
        got.clear();
        append_int(got, v);
        std::snprintf(expected, sizeof expected, "%lld", v);
        if (got != expected && ++mismatches <= 10) ADD_FAILURE() << got << " != " << expected;

        const auto u = static_cast<std::uint64_t>(v);
        got.clear();
        append_u64(got, u);
        std::snprintf(expected, sizeof expected, "%" PRIu64, u);
        if (got != expected && ++mismatches <= 10) ADD_FAILURE() << got << " != " << expected;
    }
    EXPECT_EQ(mismatches, 0);

    // The keyed members wrap the same tokens.
    std::string member;
    append_int(member, "t_ns", std::numeric_limits<long long>::min());
    append_u64(member, "seed", std::numeric_limits<std::uint64_t>::max());
    append_fixed1(member, "dbm", -0.04);
    append_bool(member, "ok", false);
    append_str(member, "name", "a\"b");
    EXPECT_EQ(member,
              ",\"t_ns\":-9223372036854775808,\"seed\":18446744073709551615,\"dbm\":-0.0,"
              "\"ok\":false,\"name\":\"a\\\"b\"");
}

TEST(JsonWriterTest, EscaperMatchesByteAtATimeReference) {
    Rng rng(0xe5ca'9e00);
    bool seen[256] = {};
    int mismatches = 0;
    std::string s;
    std::string got;
    for (int i = 0; i < kCases; ++i) {
        s.resize(rng.next_below(24));
        // Half the strings are mostly printable, so clean runs of every
        // length meet escapes at every position.
        const bool printable = rng.chance(0.5);
        for (char& c : s) {
            const bool any = !printable || rng.chance(0.1);
            c = static_cast<char>(any ? rng.next_below(256) : 0x20 + rng.next_below(0x5f));
            seen[static_cast<unsigned char>(c)] = true;
        }
        got.assign("prefix");
        append_escaped(got, s);
        if (got != "prefix" + reference_escape(s) && ++mismatches <= 10) {
            ADD_FAILURE() << "case " << i << ": " << got;
        }
    }
    EXPECT_EQ(mismatches, 0);
    for (int b = 0; b < 256; ++b) EXPECT_TRUE(seen[b]) << "byte " << b << " never drawn";
    EXPECT_EQ(escape(s), reference_escape(s));
}

}  // namespace
}  // namespace ble::json
