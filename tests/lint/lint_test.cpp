// Self-tests for injectable_lint (tools/injectable_lint): the tokenizer, the
// rules against the fixture corpus under tests/lint/fixtures/, the
// suppression grammar, and the reporting helpers.  Every bad_* fixture must
// produce its rule's findings (the linter stays sharp) and every good_*
// fixture must scan clean (the linter stays quiet on compliant code).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "injectable_lint/lint.hpp"

namespace injectable::lint {
namespace {

std::vector<Finding> scan_fixture(const std::string& name) {
    std::vector<Finding> findings;
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
    EXPECT_TRUE(scan_file(path, findings)) << "cannot read fixture " << path;
    return findings;
}

int count_rule(const std::vector<Finding>& findings, Rule rule, bool suppressed = false) {
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
            return f.rule == rule && f.suppressed == suppressed;
        }));
}

// --- tokenizer ---

TEST(Tokenizer, KeepsUdlAndHexAsSingleTokens) {
    const TokenStream s = tokenize("auto d = 8_us + 0x555555;");
    std::vector<std::string> numbers;
    for (const Token& t : s.tokens)
        if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
    EXPECT_EQ(numbers, (std::vector<std::string>{"8_us", "0x555555"}));
}

TEST(Tokenizer, ClosingAnglesAreSeparateTokens) {
    // map<K, vector<V>> must lex as two '>' puncts, not one '>>' shift, so
    // the D1 template-argument walker can balance angle depth.
    const TokenStream s = tokenize("std::map<K, std::vector<V>> m;");
    const auto closes = std::count_if(s.tokens.begin(), s.tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kPunct && t.text == ">";
    });
    EXPECT_EQ(closes, 2);
}

TEST(Tokenizer, DropsStringsCollectsComments) {
    const TokenStream s = tokenize(
        "// a comment with rand() inside\n"
        "const char* p = \"steady_clock 150_us\";  /* rand() again */\n");
    for (const Token& t : s.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "steady_clock");
        EXPECT_NE(t.text, "150_us");
    }
    ASSERT_EQ(s.comments.size(), 2u);
    EXPECT_EQ(s.comments[0].line, 1);
    EXPECT_EQ(s.comments[1].line, 2);
}

TEST(Tokenizer, SkipsPreprocessorAndRawStrings) {
    const TokenStream s = tokenize(
        "#include <chrono>\n"
        "auto r = R\"(rand() and time(0))\";\n"
        "int live = 1;\n");
    for (const Token& t : s.tokens) {
        EXPECT_NE(t.text, "chrono");
        EXPECT_NE(t.text, "rand");
    }
    const auto live = std::find_if(s.tokens.begin(), s.tokens.end(),
                                   [](const Token& t) { return t.text == "live"; });
    ASSERT_NE(live, s.tokens.end());
    EXPECT_EQ(live->line, 3);
}

TEST(Tokenizer, CollectsIncludeDirectives) {
    const TokenStream s = tokenize(
        "#include <vector>\n"
        "#include \"link/connection.hpp\"\n"
        "#  include   \"common/rng.hpp\"\n"
        "int x = 0;\n");
    ASSERT_EQ(s.includes.size(), 3u);
    EXPECT_TRUE(s.includes[0].angled);
    EXPECT_EQ(s.includes[0].path, "vector");
    EXPECT_FALSE(s.includes[1].angled);
    EXPECT_EQ(s.includes[1].path, "link/connection.hpp");
    EXPECT_EQ(s.includes[1].line, 2);
    EXPECT_EQ(s.includes[2].path, "common/rng.hpp");
    EXPECT_EQ(s.includes[2].line, 3);
}

TEST(Tokenizer, DirectiveLineContinuationsDoNotLeakTokens) {
    // A multi-line macro: every continued line belongs to the directive, so
    // rand()/steady_clock in the body must not become tokens, and the line
    // counter must stay correct for tokens after the macro.
    const TokenStream s = tokenize(
        "#define NOISY(x) \\\n"
        "    time(nullptr) + rand() + \\\n"
        "    (x)\n"
        "int after = 1;\n");
    for (const Token& t : s.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "time");
    }
    const auto after = std::find_if(s.tokens.begin(), s.tokens.end(),
                                    [](const Token& t) { return t.text == "after"; });
    ASSERT_NE(after, s.tokens.end());
    EXPECT_EQ(after->line, 4);
}

TEST(Tokenizer, CrlfDirectiveContinuations) {
    // Backslash + CRLF is a line continuation too (the historical leak: only
    // backslash + LF was recognised, so CRLF macro bodies spilled tokens).
    const TokenStream s = tokenize(
        "#define NOISY \\\r\n"
        "    rand()\r\n"
        "int after = 1;\r\n");
    for (const Token& t : s.tokens) EXPECT_NE(t.text, "rand");
    const auto after = std::find_if(s.tokens.begin(), s.tokens.end(),
                                    [](const Token& t) { return t.text == "after"; });
    ASSERT_NE(after, s.tokens.end());
    EXPECT_EQ(after->line, 3);
}

// --- fixture corpus, bad side: every rule fires where it must ---

TEST(FixtureBad, D1RadioMediumRegression) {
    // The PR 3 bug class: pointer-keyed listener map in RadioMedium.
    const auto findings = scan_fixture("bad_d1_radio_medium.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD1), 1);
    EXPECT_EQ(unsuppressed_count(findings), 1);
    const auto& f = findings.front();
    EXPECT_EQ(f.rule, Rule::kD1);
    EXPECT_EQ(f.line, 25);  // the listeners_ declaration
    EXPECT_NE(f.message.find("heap-address order"), std::string::npos);
    EXPECT_NE(f.file.find("bad_d1_radio_medium.cpp"), std::string::npos)
        << "findings must report the real path, not the fixture's logical path";
}

TEST(FixtureBad, D1UnorderedEmissionLoops) {
    // The D1 extension: int-keyed containers (the pointer-key pass stays
    // silent) iterated into bus emission — one braced loop, one brace-less.
    const auto findings = scan_fixture("bad_d1_unordered_emit.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD1), 2);
    EXPECT_EQ(unsuppressed_count(findings), 2);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("hash order is unspecified"), std::string::npos);
    }
}

TEST(FixtureBad, D1UnorderedSerializationLoops) {
    // The D1 serializer extension: values leaving an unordered container in
    // hash order straight into to_json / append_json_escaped / encode_frame.
    const auto findings = scan_fixture("bad_d1_unordered_serialize.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD1), 3);
    EXPECT_EQ(unsuppressed_count(findings), 3);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("serialized byte stream"), std::string::npos);
    }
}

TEST(FixtureBad, E1EnvironmentReadsOutsideEdgeWiring) {
    // std::getenv, unqualified getenv, and secure_getenv deep in src/; the
    // mock's member declaration and member call must stay clean.
    const auto findings = scan_fixture("bad_e1_env_read.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kE1), 3);
    EXPECT_EQ(unsuppressed_count(findings), 3);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("ResultSink"), std::string::npos);
    }
}

TEST(FixtureBad, D2WallClockAndUnseededRandomness) {
    const auto findings = scan_fixture("bad_d2_wall_clock.cpp");
    // steady_clock, random_device, srand, time(, rand(
    EXPECT_EQ(count_rule(findings, Rule::kD2), 5);
    EXPECT_EQ(unsuppressed_count(findings), 5);
}

TEST(FixtureBad, D2TelemetryClockReadsRawAndAudited) {
    const auto findings = scan_fixture("bad_d2_telemetry_clock.cpp");
    // One raw steady_clock read fires; the audited-suppression site still
    // surfaces, marked suppressed, so the audit surface stays countable.
    EXPECT_EQ(count_rule(findings, Rule::kD2), 1);
    EXPECT_EQ(count_rule(findings, Rule::kD2, /*suppressed=*/true), 1);
    EXPECT_EQ(unsuppressed_count(findings), 1);
}

TEST(FixtureBad, D3FloatAccumulation) {
    const auto findings = scan_fixture("bad_d3_float_accum.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD3), 2);  // total +=, mean = mean +
    EXPECT_EQ(unsuppressed_count(findings), 2);
}

TEST(FixtureBad, S1MagicNumbers) {
    const auto findings = scan_fixture("bad_s1_magic.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kS1), 3);  // 150_us, 1250_us, 37
    EXPECT_EQ(unsuppressed_count(findings), 3);
}

TEST(FixtureBad, D4DiscardedSchedulerHandles) {
    // Bare statement calls, an unaudited (void) cast, and a brace-less
    // if-body: four dropped EventIds.
    const auto findings = scan_fixture("bad_d4_discard.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD4), 4);
    EXPECT_EQ(unsuppressed_count(findings), 4);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("EventId"), std::string::npos);
    }
}

TEST(FixtureBad, MalformedSuppressionsAreFindingsAndSuppressNothing) {
    const auto findings = scan_fixture("bad_suppression.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kBadSuppression), 2);
    // The D1 findings the malformed directives tried to cover stay live.
    EXPECT_EQ(count_rule(findings, Rule::kD1), 2);
    EXPECT_EQ(unsuppressed_count(findings), 4);
}

// --- fixture corpus, good side: compliant code scans clean ---

TEST(FixtureGood, D1AttachOrderAndAuditedMemo) {
    const auto findings = scan_fixture("good_d1_attach_order.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    ASSERT_EQ(count_rule(findings, Rule::kD1, /*suppressed=*/true), 1);
    const auto it = std::find_if(findings.begin(), findings.end(),
                                 [](const Finding& f) { return f.suppressed; });
    EXPECT_NE(it->suppress_reason.find("lookup-only"), std::string::npos);
}

TEST(FixtureGood, D1OrderedEmission) {
    // Attach-order vector for emission + lookup-only unordered index (even
    // iterated, as long as no emit rides the loop) scans fully clean.
    const auto findings = scan_fixture("good_d1_ordered_emit.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D1OrderedSerialization) {
    // Trial-index vector + key-sorted std::map for serialization, with the
    // unordered index iterated only for an order-free count: fully clean.
    const auto findings = scan_fixture("good_d1_ordered_serialize.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, E1EdgeWiringAllowlisted) {
    // The same getenv calls as the bad fixture, but in the file that owns
    // the env contract (src/world/result_sink.cpp): allowlisted, clean.
    const auto findings = scan_fixture("good_e1_edge_env.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D2SimTime) {
    const auto findings = scan_fixture("good_d2_sim_time.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D2TelemetryClockCallersStayClean) {
    // Campaign code stamps telemetry via ble::telemetry_now_ms() and passes
    // explicit now_ms values down — no clock primitive in sight.
    const auto findings = scan_fixture("good_d2_telemetry_clock.cpp");
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D3MergeHelpers) {
    const auto findings = scan_fixture("good_d3_merge_helpers.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kD3, /*suppressed=*/true), 1);
}

TEST(FixtureGood, D4StoredHandlesAndAuditedFireAndForget) {
    const auto findings = scan_fixture("good_d4_handles.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kD4, /*suppressed=*/true), 1);
}

TEST(FixtureGood, S1NamedConstants) {
    const auto findings = scan_fixture("good_s1_named.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_TRUE(findings.empty());
}

// --- rule mechanics on inline snippets ---

TEST(RuleD1, EmissionInsideUnorderedIterationFlagged) {
    // A loop that emits is flagged; the same loop doing arithmetic is not.
    const std::string src =
        "void f(Bus& bus, std::unordered_set<int> live, long& sum) {\n"
        "  for (int id : live) bus.emit(make(id));\n"
        "  for (int id : live) sum += id;\n"
        "}\n";
    const auto findings = scan_source("t.cpp", "src/obs/t.cpp", src);
    EXPECT_EQ(count_rule(findings, Rule::kD1), 1);
    EXPECT_EQ(findings.at(0).line, 2);
}

TEST(RuleD1, SerializationInsideUnorderedIterationFlagged) {
    // A loop that serializes is flagged; the same loop counting is not.
    const std::string src =
        "std::string f(std::unordered_map<int, R> results, long& n) {\n"
        "  std::string out;\n"
        "  for (const auto& [k, r] : results) out += to_json(r);\n"
        "  for (const auto& [k, r] : results) n += k;\n"
        "  return out;\n"
        "}\n";
    const auto findings = scan_source("t.cpp", "src/campaign/t.cpp", src);
    EXPECT_EQ(count_rule(findings, Rule::kD1), 1);
    EXPECT_EQ(findings.at(0).line, 3);
}

TEST(RuleE1, OnlyRunsInSrcOutsideTheAllowlist) {
    const std::string src = "bool f() { return std::getenv(\"X\") != nullptr; }";
    EXPECT_EQ(count_rule(scan_source("t.cpp", "src/campaign/t.cpp", src), Rule::kE1), 1);
    EXPECT_EQ(count_rule(scan_source("t.cpp", "src/obs/t.cpp", src), Rule::kE1), 1);
    // The edge wiring and the non-src trees (tool mains, tests, examples)
    // are exactly where env reads belong.
    EXPECT_TRUE(scan_source("t.cpp", "src/world/result_sink.cpp", src).empty());
    EXPECT_TRUE(scan_source("t.cpp", "src/world/trial_runner.cpp", src).empty());
    EXPECT_TRUE(scan_source("t.cpp", "tools/campaign_ctl/main.cpp", src).empty());
    EXPECT_TRUE(scan_source("t.cpp", "examples/quickstart.cpp", src).empty());
}

TEST(RuleE1, SuppressionIsAuditedLikeEveryOtherRule) {
    const std::string src =
        "// injectable-lint: allow(E1) -- container probe, affects no result channel\n"
        "bool f() { return std::getenv(\"CI\") != nullptr; }\n";
    const auto findings = scan_source("t.cpp", "src/campaign/t.cpp", src);
    EXPECT_EQ(count_rule(findings, Rule::kE1, /*suppressed=*/true), 1);
    EXPECT_EQ(unsuppressed_count(findings), 0);
}

TEST(RuleD2, MemberAccessIsExempt) {
    const auto findings =
        scan_source("t.cpp", "src/world/t.cpp",
                    "long f(Stats& s, Obj* o) { return s.time(0) + o->rand(); }");
    EXPECT_TRUE(findings.empty());
    const auto live = scan_source("t.cpp", "src/world/t.cpp", "long g() { return time(nullptr); }");
    EXPECT_EQ(count_rule(live, Rule::kD2), 1);
}

TEST(RuleD2, AllowlistedPrimitivesAreExempt) {
    const std::string src = "unsigned seed() { std::random_device rd; return rd(); }";
    EXPECT_TRUE(scan_source("rng.hpp", "src/common/rng.hpp", src).empty());
    EXPECT_EQ(count_rule(scan_source("x.cpp", "src/world/x.cpp", src), Rule::kD2), 1);
}

TEST(RuleD3, OnlyRunsInStatsLayer) {
    const std::string src = "double a(double x) { double s = 0; s += x; return s; }";
    EXPECT_EQ(count_rule(scan_source("a.cpp", "src/obs/a.cpp", src), Rule::kD3), 1);
    EXPECT_EQ(count_rule(scan_source("a.cpp", "src/world/a.cpp", src), Rule::kD3), 1);
    EXPECT_TRUE(scan_source("a.cpp", "src/sim/a.cpp", src).empty());
}

TEST(RuleD4, ConsumedHandlesAreExempt) {
    // Assignment, argument position, comparison, and return all hand the
    // EventId to a consumer; declarations are parameters, not discards.
    const std::string src =
        "EventId f(Scheduler& s) {\n"
        "  auto id = s.schedule_at(1, cb);\n"
        "  keep(s.schedule_after(2, cb));\n"
        "  if (s.schedule_at(3, cb) != id) { s.cancel(id); }\n"
        "  return s.schedule_after(4, cb);\n"
        "}\n"
        "EventId schedule_at(TimePoint t, Callback fn);\n";
    EXPECT_TRUE(scan_source("t.cpp", "src/core/t.cpp", src).empty());
}

TEST(RuleD4, FlagsDiscardsThroughReceiverChains) {
    // The receiver may be a chained nullary call; (void) makes the discard
    // explicit but still audited.
    const std::string src =
        "void f(Radio& r) {\n"
        "  r.scheduler().schedule_at(1, cb);\n"
        "  (void)r.scheduler().schedule_after(2, cb);\n"
        "}\n";
    const auto findings = scan_source("t.cpp", "src/core/t.cpp", src);
    EXPECT_EQ(count_rule(findings, Rule::kD4), 2);
    EXPECT_NE(findings.at(1).message.find("explicitly discarded"), std::string::npos);
}

TEST(RuleD4, AppliesOutsideSrcToo) {
    const std::string src = "void f(Scheduler& s) { s.schedule_after(1, cb); }";
    EXPECT_EQ(count_rule(scan_source("b.cpp", "bench/b.cpp", src), Rule::kD4), 1);
    EXPECT_EQ(count_rule(scan_source("e.cpp", "examples/e.cpp", src), Rule::kD4), 1);
}

TEST(RuleS1, OnlyRunsInPhyAndLink) {
    const std::string src = "Duration d() { return 150_us; }";
    EXPECT_EQ(count_rule(scan_source("t.cpp", "src/phy/t.cpp", src), Rule::kS1), 1);
    EXPECT_EQ(count_rule(scan_source("t.cpp", "src/link/t.cpp", src), Rule::kS1), 1);
    EXPECT_TRUE(scan_source("t.cpp", "src/sim/t.cpp", src).empty());
}

TEST(RuleS1, ConstexprScopeInheritanceExemptsBodies) {
    // A constexpr function body is a named-constant factory: literals inside
    // it (any brace depth) are exempt; the same body without constexpr is not.
    const std::string body = " int f() { if (true) { return 37; } return 39; }";
    EXPECT_TRUE(scan_source("t.cpp", "src/link/t.cpp", "constexpr" + body).empty());
    EXPECT_EQ(count_rule(scan_source("t.cpp", "src/link/t.cpp", body), Rule::kS1), 2);
}

TEST(RuleS1, SmallTimeLiteralsCarryNoSpecMeaning) {
    const auto findings =
        scan_source("t.cpp", "src/link/t.cpp", "Duration z() { return 0_us + 1_us; }");
    EXPECT_TRUE(findings.empty());
}

// --- suppression placement ---

TEST(Suppression, CoversDirectiveLineAndNextLine) {
    const auto findings = scan_source(
        "t.cpp", "src/link/t.cpp",
        "// injectable-lint: allow(S1) -- fixture\n"
        "Duration a() { return 150_us; }\n"
        "Duration b() { return 150_us; }\n");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_TRUE(findings[0].suppressed);   // line 2: covered from line 1
    EXPECT_FALSE(findings[1].suppressed);  // line 3: out of the directive's reach
    EXPECT_EQ(unsuppressed_count(findings), 1);
}

TEST(Suppression, MultiRuleDirective) {
    const auto findings =
        scan_source("t.cpp", "src/world/t.cpp",
                    "double s; void f(double x) { s += x; (void)time(nullptr); }  // "
                    "injectable-lint: allow(D2,D3) -- fixture covers both\n");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kD3, /*suppressed=*/true), 1);
    EXPECT_EQ(count_rule(findings, Rule::kD2, /*suppressed=*/true), 1);
}

// --- reporting ---

TEST(Reporting, JsonlShapeAndSummaryTotals) {
    const auto findings = scan_fixture("bad_s1_magic.cpp");
    const std::string jsonl = to_jsonl(findings);
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
    EXPECT_NE(jsonl.find("\"rule\":\"S1\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"suppressed\":false"), std::string::npos);
    const std::string text = summary(findings, 1);
    EXPECT_NE(text.find("[S1]"), std::string::npos);
    EXPECT_NE(text.find("3 findings"), std::string::npos);
}

TEST(Reporting, ScanPathsWalksTheFixtureCorpus) {
    std::vector<Finding> findings;
    const int files = scan_paths({LINT_FIXTURE_DIR}, findings);
    EXPECT_EQ(files, 35);  // 18 bad_* + 17 good_* fixtures
    EXPECT_GT(unsuppressed_count(findings), 0);
    EXPECT_EQ(scan_paths({"/nonexistent/injectable"}, findings), -1);
}

TEST(Reporting, OverlappingRootsScanEachFileOnce) {
    // A directory plus a file it already contains, plus the same directory
    // again: each fixture is scanned and reported exactly once, sorted.
    std::vector<Finding> once, overlapped;
    const int base = scan_paths({LINT_FIXTURE_DIR}, once);
    const int deduped = scan_paths({LINT_FIXTURE_DIR,
                                    std::string(LINT_FIXTURE_DIR) + "/bad_s1_magic.cpp",
                                    LINT_FIXTURE_DIR},
                                   overlapped);
    EXPECT_EQ(base, deduped);
    ASSERT_EQ(once.size(), overlapped.size());
    for (std::size_t i = 0; i < once.size(); ++i) {
        EXPECT_EQ(once[i].file, overlapped[i].file);
        EXPECT_EQ(once[i].line, overlapped[i].line);
    }
    EXPECT_TRUE(std::is_sorted(overlapped.begin(), overlapped.end(),
                               [](const Finding& a, const Finding& b) {
                                   return a.file < b.file ||
                                          (a.file == b.file && a.line < b.line);
                               }));
}

// --- phase-1 summaries: collectors ---

TEST(Summaries, CollectsEnumsSwitchesAndIncludes) {
    const std::string src =
        "#include \"campaign/wire.hpp\"\n"
        "enum class WireType : unsigned { kA = 1, kB = 2, kC = 3 };\n"
        "enum Unnamed { kX };\n"
        "int f(WireType t) {\n"
        "  switch (t) {\n"
        "    case WireType::kA: return 1;\n"
        "    case WireType::kB: return 2;\n"
        "    default: return 0;\n"
        "  }\n"
        "}\n";
    const FileSummary s = summarize_source("t.cpp", "src/campaign/t.cpp", src);
    ASSERT_EQ(s.includes.size(), 1u);
    EXPECT_EQ(s.includes[0].path, "campaign/wire.hpp");
    ASSERT_EQ(s.enums.size(), 2u);
    EXPECT_EQ(s.enums[0].name, "WireType");
    EXPECT_EQ(s.enums[0].enumerators, (std::vector<std::string>{"kA", "kB", "kC"}));
    EXPECT_EQ(s.enums[1].name, "Unnamed");
    ASSERT_EQ(s.switches.size(), 1u);
    EXPECT_EQ(s.switches[0].enum_name, "WireType");
    EXPECT_EQ(s.switches[0].cases, (std::vector<std::string>{"kA", "kB"}));
    EXPECT_TRUE(s.switches[0].has_default);
    EXPECT_EQ(s.switches[0].line, 5);
}

TEST(Summaries, CollectsNestedLockEdgesAndSuppressions) {
    const std::string src =
        "#include <mutex>\n"
        "std::mutex a;  // guards: x (fixture)\n"
        "std::mutex b;  // guards: y (fixture)\n"
        "void f() {\n"
        "  std::lock_guard<std::mutex> ga(a);\n"
        "  { std::lock_guard gb(b); }\n"
        "}\n"
        "// injectable-lint: allow(C2) -- inline fixture reason\n"
        "void g();\n";
    const FileSummary s = summarize_source("t.cpp", "src/campaign/t.cpp", src);
    ASSERT_EQ(s.lock_edges.size(), 1u);
    EXPECT_EQ(s.lock_edges[0].outer, "a");
    EXPECT_EQ(s.lock_edges[0].inner, "b");
    EXPECT_EQ(s.lock_edges[0].line, 6);
    ASSERT_EQ(s.suppressions.size(), 1u);
    EXPECT_EQ(s.suppressions[0].rule, Rule::kC2);
    EXPECT_EQ(s.suppressions[0].line, 8);
    EXPECT_EQ(s.suppressions[0].reason, "inline fixture reason");
}

TEST(Summaries, ScopedLockContributesNoIntraCallEdges) {
    const std::string src =
        "#include <mutex>\n"
        "std::mutex a;  // guards: x (fixture)\n"
        "std::mutex b;  // guards: y (fixture)\n"
        "void f() { std::scoped_lock both(a, b); }\n";
    const FileSummary s = summarize_source("t.cpp", "src/campaign/t.cpp", src);
    EXPECT_TRUE(s.lock_edges.empty());
}

// --- layer ranking ---

TEST(Layering, RanksFollowTheDeclaredOrder) {
    EXPECT_EQ(layer_rank("src/common/rng.hpp"), 0);
    EXPECT_EQ(layer_rank("/abs/tree/src/obs/bus.hpp"), 1);
    EXPECT_EQ(layer_rank("phy/frame.hpp"), layer_rank("sim/medium.hpp"));
    EXPECT_LT(layer_rank("link/connection.hpp"), layer_rank("host/central.hpp"));
    EXPECT_LT(layer_rank("src/core/session.cpp"), layer_rank("src/world/world.cpp"));
    EXPECT_LT(layer_rank("src/world/world.cpp"), layer_rank("src/campaign/leader.cpp"));
    EXPECT_LT(layer_rank("src/campaign/leader.cpp"), layer_rank("tools/lint.cpp"));
    EXPECT_LT(layer_rank("tools/x/main.cpp"), layer_rank("bench/bench_micro.cpp"));
    EXPECT_EQ(layer_rank("vector"), -1);
    EXPECT_EQ(layer_rank("local_header.hpp"), -1);
    EXPECT_STREQ(layer_name(0), "common");
    EXPECT_STREQ(layer_name(8), "campaign");
}

// --- L1: architecture layering ---

TEST(FixtureL1, UpwardIncludeIsAFinding) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_l1_upward.cpp"},
                         findings),
              0);
    ASSERT_EQ(count_rule(findings, Rule::kL1), 1);
    const auto& f = findings.front();
    EXPECT_NE(f.message.find("layering violation"), std::string::npos);
    EXPECT_NE(f.message.find("campaign"), std::string::npos);
}

TEST(FixtureL1, DownwardIncludesAreClean) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_l1_layering.cpp"},
                         findings),
              0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureL1, AuditedUpwardIncludeIsSuppressed) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_l1_suppressed.cpp"},
                         findings),
              0);
    EXPECT_EQ(unsuppressed_count(findings), 0);
    ASSERT_EQ(count_rule(findings, Rule::kL1, /*suppressed=*/true), 1);
    EXPECT_NE(findings.front().suppress_reason.find("transitional"), std::string::npos);
}

TEST(FixtureL1, IncludeCycleFlagsBothEdges) {
    std::vector<Finding> findings;
    const int files =
        scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_l1_cycle_a.cpp",
                    std::string(LINT_FIXTURE_DIR) + "/bad_l1_cycle_b.cpp"},
                   findings);
    ASSERT_EQ(files, 2);
    EXPECT_EQ(count_rule(findings, Rule::kL1), 2);
    for (const Finding& f : findings)
        EXPECT_NE(f.message.find("include cycle"), std::string::npos);
    // Each file alone has an unresolvable include: no cycle, no finding.
    std::vector<Finding> alone;
    ASSERT_EQ(scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_l1_cycle_a.cpp"}, alone),
              1);
    EXPECT_TRUE(alone.empty());
}

TEST(RuleL1, RealTreeLayerOrderHasNoUpwardEdgesByConstruction) {
    // Inline mirror of every directory-level edge in the real tree (kept in
    // sync by lint.tree itself): each must be downward or same-rank.
    const std::pair<const char*, const char*> edges[] = {
        {"src/att/a", "common/x"},    {"src/campaign/a", "obs/x"},
        {"src/campaign/a", "world/x"}, {"src/core/a", "att/x"},
        {"src/core/a", "host/x"},     {"src/core/a", "sim/x"},
        {"src/crypto/a", "link/x"},   {"src/dongle/a", "core/x"},
        {"src/gatt/a", "att/x"},      {"src/host/a", "crypto/x"},
        {"src/host/a", "link/x"},     {"src/ids/a", "core/x"},
        {"src/ids/a", "obs/x"},       {"src/link/a", "obs/x"},
        {"src/link/a", "phy/x"},      {"src/link/a", "sim/x"},
        {"src/obs/a", "common/x"},    {"src/phy/a", "sim/x"},
        {"src/sim/a", "obs/x"},       {"src/world/a", "gatt/x"},
        {"src/world/a", "host/x"},    {"tools/a/b", "campaign/x"},
    };
    for (const auto& [from, to] : edges) {
        EXPECT_GE(layer_rank(from), layer_rank(to))
            << from << " -> " << to << " would be an upward edge";
    }
}

// --- C1: concurrency discipline ---

TEST(FixtureC1, DetachBareLockAndUndocumentedMemberAreFindings) {
    const auto findings = scan_fixture("bad_c1_discipline.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kC1), 4);
    EXPECT_EQ(unsuppressed_count(findings), 4);
}

TEST(FixtureC1, RaiiDocumentedAndAuditedDetachAreClean) {
    const auto findings = scan_fixture("good_c1_raii.cpp");
    EXPECT_EQ(unsuppressed_count(findings), 0);
    ASSERT_EQ(count_rule(findings, Rule::kC1, /*suppressed=*/true), 1);
    EXPECT_NE(findings.front().suppress_reason.find("process-lifetime"),
              std::string::npos);
}

TEST(RuleC1, WeakPtrLockIsNotAMutexAcquisition) {
    const std::string src =
        "bool f(std::weak_ptr<int> alive) { return alive.lock() != nullptr; }";
    EXPECT_TRUE(scan_source("t.cpp", "src/core/t.cpp", src).empty());
}

TEST(RuleC1, LocalMutexesNeedNoGuardsComment) {
    const std::string src =
        "void f() {\n"
        "  std::mutex local;\n"
        "  const std::lock_guard<std::mutex> lock(local);\n"
        "}\n";
    EXPECT_TRUE(scan_source("t.cpp", "src/campaign/t.cpp", src).empty());
}

// --- C2: cross-TU lock order ---

TEST(FixtureC2, AbbaCycleFlagsEveryEdge) {
    std::vector<Finding> findings;
    ASSERT_GT(
        scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_c2_abba.cpp"}, findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kC2), 2);
    for (const Finding& f : findings)
        EXPECT_NE(f.message.find("lock-order cycle"), std::string::npos);
}

TEST(FixtureC2, ConsistentOrderIsClean) {
    std::vector<Finding> findings;
    ASSERT_GT(
        scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_c2_order.cpp"}, findings), 0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureC2, AuditedCycleIsSuppressed) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_c2_suppressed.cpp"},
                         findings),
              0);
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kC2, /*suppressed=*/true), 2);
}

TEST(FixtureC2, CycleOnlyVisibleAcrossTranslationUnits) {
    // Each TU is locally consistent; only the merged phase-2 graph deadlocks.
    std::vector<Finding> one, both;
    ASSERT_EQ(scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_c2_cross_tu_one.cpp"},
                         one),
              1);
    EXPECT_EQ(count_rule(one, Rule::kC2), 0);
    ASSERT_EQ(scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_c2_cross_tu_one.cpp",
                          std::string(LINT_FIXTURE_DIR) + "/bad_c2_cross_tu_two.cpp"},
                         both),
              2);
    EXPECT_EQ(count_rule(both, Rule::kC2), 2);
}

TEST(RuleC2, RecursiveAcquisitionIsASelfCycle) {
    const std::string src =
        "std::mutex m;  // guards: s (fixture)\n"
        "void f() {\n"
        "  std::lock_guard<std::mutex> a(m);\n"
        "  std::lock_guard<std::mutex> b(m);\n"
        "}\n";
    std::vector<Finding> findings;
    run_cross_tu_rules({summarize_source("t.cpp", "src/campaign/t.cpp", src)}, {},
                       findings);
    ASSERT_EQ(count_rule(findings, Rule::kC2), 1);
    EXPECT_NE(findings.front().message.find("recursive acquisition"), std::string::npos);
}

// --- W1: wire/enum exhaustiveness ---

Options w1_options(const char* enum_name) {
    Options options;
    options.w1_enums = {enum_name};
    return options;
}

TEST(FixtureW1, ExhaustiveSwitchesAreClean) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_w1_exhaustive.cpp"},
                         findings, w1_options("FixWireGood")),
              0);
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureW1, DefaultDoesNotExcuseAMissingEnumerator) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/bad_w1_missing.cpp"},
                         findings, w1_options("FixWireBad")),
              0);
    ASSERT_EQ(count_rule(findings, Rule::kW1), 1);
    EXPECT_NE(findings.front().message.find("kDone"), std::string::npos);
    EXPECT_NE(findings.front().message.find("default"), std::string::npos);
}

TEST(FixtureW1, AuditedSubsetIsSuppressed) {
    std::vector<Finding> findings;
    ASSERT_GT(scan_paths({std::string(LINT_FIXTURE_DIR) + "/good_w1_suppressed.cpp"},
                         findings, w1_options("FixWireSup")),
              0);
    EXPECT_EQ(unsuppressed_count(findings), 0);
    EXPECT_EQ(count_rule(findings, Rule::kW1, /*suppressed=*/true), 1);
}

TEST(RuleW1, EnumAndSwitchMergeAcrossTranslationUnits) {
    // The enum lives in one TU (the wire header), the switch in another (a
    // dispatch site): phase 2 joins them by the case-label qualifier.
    const FileSummary header = summarize_source(
        "wire.hpp", "src/campaign/wire.hpp",
        "enum class FixWireX : unsigned { kA = 1, kB = 2 };\n",
        w1_options("FixWireX"));
    const FileSummary dispatch = summarize_source(
        "dispatch.cpp", "src/campaign/dispatch.cpp",
        "int f(FixWireX t) { switch (t) { case FixWireX::kA: return 1; } return 0; }\n",
        w1_options("FixWireX"));
    std::vector<Finding> findings;
    run_cross_tu_rules({header, dispatch}, w1_options("FixWireX"), findings);
    ASSERT_EQ(count_rule(findings, Rule::kW1), 1);
    EXPECT_EQ(findings.front().file, "dispatch.cpp");
    EXPECT_NE(findings.front().message.find("kB"), std::string::npos);
}

TEST(RuleW1, UnmonitoredEnumsAreIgnored) {
    const std::string src =
        "enum class Internal { kA, kB };\n"
        "int f(Internal t) { switch (t) { case Internal::kA: return 1; } return 0; }\n";
    std::vector<Finding> findings;
    run_cross_tu_rules({summarize_source("t.cpp", "src/campaign/t.cpp", src)}, {},
                       findings);
    EXPECT_EQ(count_rule(findings, Rule::kW1), 0);
}

// --- include-graph DOT + suppression inventory artifacts ---

TEST(Artifacts, IncludeGraphDotIsDeterministicAndMarksUpwardEdges) {
    const FileSummary link = summarize_source(
        "a.hpp", "src/link/a.hpp",
        "#include \"common/x.hpp\"\n#include \"phy/y.hpp\"\nint a;\n");
    const FileSummary bad = summarize_source(
        "b.hpp", "src/common/b.hpp", "#include \"campaign/z.hpp\"\nint b;\n");
    const std::string expected =
        "digraph injectable_layers {\n"
        "  rankdir=BT;\n"
        "  node [shape=box, fontname=\"monospace\"];\n"
        "  { rank=same; \"common\"; }  // layer 0: common\n"
        "  { rank=same; \"phy\"; }  // layer 2: phy/sim\n"
        "  { rank=same; \"link\"; }  // layer 3: link/crypto\n"
        "  { rank=same; \"campaign\"; }  // layer 8: campaign\n"
        "  \"common\" -> \"campaign\" [color=red, penwidth=2.0, label=\"UPWARD\"];\n"
        "  \"link\" -> \"common\";\n"
        "  \"link\" -> \"phy\";\n"
        "}\n";
    EXPECT_EQ(include_graph_dot({link, bad}), expected);
    // Input order must not matter.
    EXPECT_EQ(include_graph_dot({bad, link}), expected);
}

TEST(Artifacts, SuppressionInventoryIsStableJsonl) {
    const Analysis analysis =
        analyze_paths({std::string(LINT_FIXTURE_DIR) + "/good_c1_raii.cpp",
                       std::string(LINT_FIXTURE_DIR) + "/good_l1_suppressed.cpp"});
    ASSERT_EQ(analysis.files_scanned, 2);
    const std::string jsonl = suppressions_jsonl(analysis.files);
    EXPECT_NE(jsonl.find("\"rule\":\"C1\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"rule\":\"L1\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"reason\":\"process-lifetime logger, owns no state\""),
              std::string::npos);
    // One JSON object per directive, sorted by (file, line, rule).
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < jsonl.size()) {
        const std::size_t eol = jsonl.find('\n', pos);
        lines.push_back(jsonl.substr(pos, eol - pos));
        pos = eol + 1;
    }
    EXPECT_EQ(lines.size(), 2u);
    EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
}

}  // namespace
}  // namespace injectable::lint
