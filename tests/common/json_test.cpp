// common/json reads campaign records (campaign_report) and the series
// records trace_replay --from-json re-runs, so it parses outside bytes.
// Literal vectors pin the escapes, the nesting limit, trailing input and
// verbatim number tokens; the seeded half feeds it garbage and byte
// mutations of real records and demands no crash plus a stable round trip:
// whenever parse() accepts, dump() re-parses and dumps identically.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "world/experiment.hpp"
#include "world/replay.hpp"

namespace ble::json {
namespace {

Value parsed(std::string_view text) {
    const ParseResult r = parse(text);
    EXPECT_TRUE(r.ok) << r.error << " at " << r.error_pos << " in " << text;
    return r.value;
}

std::string nested_arrays(int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonTest, EscapesDecodeAndReencode) {
    const Value v = parsed(R"("q\"b\\s\/n\nt\tr\rb\bf\f")");
    ASSERT_EQ(v.kind, Value::Kind::kString);
    EXPECT_EQ(v.str, "q\"b\\s/n\nt\tr\rb\bf\f");
    // '/' needs no escape on the way out; everything else comes back as written.
    EXPECT_EQ(v.dump(), R"("q\"b\\s/n\nt\tr\rb\bf\f")");

    for (const char* bad : {R"("\x")", R"("\u00g1")", R"("\u12")", R"("abc)", R"("\)"}) {
        EXPECT_FALSE(parse(bad).ok) << bad;
    }
}

TEST(JsonTest, LatinOneEscapesRoundTripByteForByte) {
    const Value v = parsed(R"("\u00e9\u0001\u007f")");
    EXPECT_EQ(v.str, std::string("\xe9\x01\x7f"));
    EXPECT_EQ(v.dump(), R"("\u00e9\u0001\u007f")");
    // Wider code points decode as UTF-8, whose bytes then escape as \u00xx:
    // one round trip reaches a fixed point.
    const Value euro = parsed(R"("\u20ac")");
    EXPECT_EQ(euro.str, std::string("\xe2\x82\xac"));
    EXPECT_EQ(euro.dump(), R"("\u00e2\u0082\u00ac")");
    EXPECT_EQ(parsed(euro.dump()).str, euro.str);
}

TEST(JsonTest, NestingStopsAtSixtyFourLevelsBelowTheRoot) {
    EXPECT_TRUE(parse(nested_arrays(65)).ok);
    const ParseResult deep = parse(nested_arrays(66));
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.error, "nesting too deep");
    EXPECT_FALSE(parse(nested_arrays(100000)).ok);  // no stack exhaustion
}

TEST(JsonTest, TrailingCharactersAreAnError) {
    EXPECT_TRUE(parse("{\"a\":1} \n\t").ok);
    const ParseResult r = parse("{\"a\":1} x");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "trailing characters");
    EXPECT_EQ(r.error_pos, 8u);
    EXPECT_FALSE(parse("[1,2]]").ok);
    EXPECT_FALSE(parse("").ok);
    EXPECT_FALSE(parse("   ").ok);
}

TEST(JsonTest, NumberTokensAreKeptVerbatim) {
    const std::string text =
        R"({"seed":18446744073709551615,"x":0.10000000000000001,"e":1E-7,"n":-0})";
    const Value v = parsed(text);
    EXPECT_EQ(v.find("seed")->raw, "18446744073709551615");
    EXPECT_EQ(v.u64("seed"), 18446744073709551615u);
    EXPECT_EQ(v.find("x")->raw, "0.10000000000000001");
    EXPECT_EQ(v.find("e")->raw, "1E-7");
    EXPECT_EQ(v.find("n")->raw, "-0");
    EXPECT_EQ(v.dump(), text);
}

// -- seeded garbage -----------------------------------------------------------

/// A record of each kind the parser meets in practice.
std::vector<std::string> seed_documents() {
    injectable::world::ExperimentConfig config;
    config.name = "json \"fuzz\"\n\xe9";
    config.world.walls.push_back({{0.5, 1.5}, {2.5, 3.5}, 6.25});
    std::vector<injectable::world::RunResult> results(3);
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].seed = 1000 + i;
        results[i].success = i != 1;
        results[i].attempts = static_cast<int>(3 * i + 1);
        results[i].wall_ms = 0.25 * static_cast<double>(i);
    }
    obs::MetricsRegistry registry;
    registry.counter("events_total").add(42);
    registry.gauge("prof.gauge.sim.sched.queue_depth").record(5);
    registry.histogram("window_width_ns").record(1234);
    const obs::MetricsSnapshot metrics = registry.snapshot();
    return {injectable::world::to_json(config, results, &metrics),
            injectable::world::experiment_meta_json(config, 9001, 3)};
}

/// The property: no crash, and an accepted input dumps to a fixed point.
void check_round_trip(const std::string& input) {
    const ParseResult first = parse(input);
    if (!first.ok) return;
    const std::string dumped = first.value.dump();
    const ParseResult second = parse(dumped);
    ASSERT_TRUE(second.ok) << second.error << "\ninput: " << input << "\ndump: " << dumped;
    EXPECT_EQ(second.value.dump(), dumped) << "input: " << input;
}

/// A random valid document: every escape form, raw high bytes, odd number
/// spellings and nesting, so the round trip meets what garbage rarely forms.
std::string random_document(Rng& rng, int depth = 0) {
    auto random_string = [&rng] {
        static const char* const kEscapes[] = {"\\\\", "\\\"", "\\/", "\\n",
                                               "\\t", "\\r", "\\b", "\\f"};
        std::string s = "\"";
        for (std::uint64_t n = rng.next_below(8); n > 0; --n) {
            switch (rng.next_below(4)) {
                case 0: s += kEscapes[rng.next_below(8)]; break;
                case 1: {
                    char u[8];
                    std::snprintf(u, sizeof(u), "\\u%04x",
                                  static_cast<unsigned>(rng.next_below(0x10000)));
                    s += u;
                    break;
                }
                case 2: s += static_cast<char>(0x80 + rng.next_below(0x80)); break;
                default: {
                    const auto c = static_cast<char>(0x20 + rng.next_below(0x5f));
                    s += c == '"' || c == '\\' ? 'x' : c;  // those two only escaped
                    break;
                }
            }
        }
        return s + "\"";
    };
    static const char* const kNumbers[] = {"0", "-0", "17", "-3", "18446744073709551615",
                                           "0.5", "1e9", "-2.5E-3", "1E+2"};
    switch (depth > 3 ? rng.next_below(3) : rng.next_below(5)) {
        case 0: return random_string();
        case 1: return kNumbers[rng.next_below(9)];
        case 2: return rng.chance(0.5) ? (rng.chance(0.5) ? "true" : "false") : "null";
        case 3: {
            std::string out = "[";
            for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
                out += random_document(rng, depth + 1);
                if (n > 1) out += rng.chance(0.5) ? "," : " ,\n";
            }
            return out + "]";
        }
        default: {
            std::string out = "{";
            for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
                out += random_string() + ":" + random_document(rng, depth + 1);
                if (n > 1) out += ",";
            }
            return out + "}";
        }
    }
}

std::string mutate(Rng& rng, std::string doc) {
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits && !doc.empty(); ++e) {
        const std::size_t at = rng.next_below(doc.size());
        switch (rng.next_below(5)) {
            case 0: doc[at] = static_cast<char>(rng.next_below(256)); break;
            case 1: doc.insert(at, 1, static_cast<char>(rng.next_below(256))); break;
            case 2: doc.erase(at, 1 + rng.next_below(8)); break;
            case 3: doc.insert(at, doc.substr(at, 1 + rng.next_below(16))); break;
            default: doc.resize(at); break;
        }
    }
    return doc;
}

TEST(JsonFuzzTest, RandomBytesNeverCrashAndAcceptedInputsRoundTrip) {
    Rng rng(0x6a73'6f6e);
    const std::string alphabet = "{}[]\":,\\ -+.eE0123456789tfnrulas";
    for (int i = 0; i < 20000; ++i) {
        std::string input(rng.next_below(48), '\0');
        const bool json_like = rng.chance(0.8);
        for (char& c : input) {
            c = json_like ? alphabet[rng.next_below(alphabet.size())]
                          : static_cast<char>(rng.next_below(256));
        }
        check_round_trip(input);
        if (HasFatalFailure()) return;
    }
}

TEST(JsonFuzzTest, GeneratedDocumentsParseAndRoundTripAndSurviveMutation) {
    Rng rng(0x6765'6e65);
    for (int i = 0; i < 5000; ++i) {
        const std::string doc = random_document(rng);
        ASSERT_TRUE(parse(doc).ok) << parse(doc).error << " in " << doc;
        check_round_trip(doc);
        check_round_trip(mutate(rng, doc));
        if (HasFatalFailure()) return;
    }
}

TEST(JsonFuzzTest, MutatedRecordsNeverCrashAndAcceptedInputsRoundTrip) {
    const std::vector<std::string> docs = seed_documents();
    for (const std::string& doc : docs) {
        ASSERT_TRUE(parse(doc).ok) << doc;
        check_round_trip(doc);
        EXPECT_EQ(parsed(doc).dump(), doc) << "a record we wrote must dump unchanged";
    }
    Rng rng(0x6d75'7461);
    int accepted = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::string input = mutate(rng, docs[static_cast<std::size_t>(i) % docs.size()]);
        check_round_trip(input);
        if (HasFatalFailure()) return;
        accepted += parse(input).ok ? 1 : 0;
        // The trace meta header decodes through the same reader.
        (void)injectable::world::parse_trace_meta(input);
    }
    // Some mutations (a digit for a digit, a letter inside a string) must
    // survive, or the round-trip property was never exercised.
    EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace ble::json
