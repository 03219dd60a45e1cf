// Self-tests for injectable_lint (tools/injectable_lint): the tokenizer, the
// rules against the fixture corpus under tests/lint/fixtures/, and the
// summary.  Every bad_* fixture must produce its rule's findings (the linter
// stays sharp) and every good_* fixture must scan clean (the linter stays
// quiet on compliant code).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "injectable_lint/lint.hpp"

namespace injectable::lint {
namespace {

std::string fixture(const std::string& name) {
    return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

/// Both phases over the named fixtures, honouring their
/// `// lint-fixture-path:` headers.
std::vector<Finding> scan_fixtures(const std::vector<std::string>& names) {
    std::vector<std::string> paths;
    for (const std::string& name : names) paths.push_back(fixture(name));
    const Analysis analysis = analyze_paths(paths);
    EXPECT_EQ(analysis.files_scanned, static_cast<int>(names.size()))
        << "cannot read fixture " << names.front();
    return analysis.findings;
}

std::vector<Finding> scan_fixture(const std::string& name) { return scan_fixtures({name}); }

/// Per-TU findings for an inline snippet that impersonates `logical_path`.
std::vector<Finding> scan_snippet(const std::string& logical_path, std::string_view source) {
    return summarize_source("t.cpp", logical_path, source).findings;
}

int count_rule(const std::vector<Finding>& findings, Rule rule) {
    return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                          [&](const Finding& f) { return f.rule == rule; }));
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

TEST(Tokenizer, DropsStringsAndComments) {
    const TokenStream s = tokenize(
        "// a comment with rand() inside\n"
        "const char* p = \"steady_clock 150_us\";  /* rand() \n again */ int q;\n");
    for (const Token& t : s.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "steady_clock");
        EXPECT_NE(t.text, "150_us");
        EXPECT_NE(t.text, "again");
    }
    // A block comment's newline still counts.
    ASSERT_FALSE(s.tokens.empty());
    EXPECT_EQ(s.tokens.back().line, 3);
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
    EXPECT_EQ(findings.size(), 1u);
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
    EXPECT_EQ(findings.size(), 2u);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("hash order is unspecified"), std::string::npos);
    }
}

TEST(FixtureBad, D1UnorderedSerializationLoops) {
    // The D1 serializer extension: values leaving an unordered container in
    // hash order straight into to_json / append_json_escaped / encode_frame.
    const auto findings = scan_fixture("bad_d1_unordered_serialize.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD1), 3);
    EXPECT_EQ(findings.size(), 3u);
    for (const Finding& f : findings) {
        EXPECT_NE(f.message.find("serialized byte stream"), std::string::npos);
    }
}

TEST(FixtureBad, D3FloatAccumulation) {
    const auto findings = scan_fixture("bad_d3_float_accum.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kD3), 2);  // total +=, mean = mean +
    EXPECT_EQ(findings.size(), 2u);
}

TEST(FixtureBad, S1MagicNumbers) {
    const auto findings = scan_fixture("bad_s1_magic.cpp");
    EXPECT_EQ(count_rule(findings, Rule::kS1), 3);  // 150_us, 1250_us, 37
    EXPECT_EQ(findings.size(), 3u);
}

// --- fixture corpus, good side: compliant code scans clean ---

TEST(FixtureGood, D1AttachOrderAndAuditedMemo) {
    // The memo is keyed by attach index, not by address: nothing to excuse.
    EXPECT_TRUE(scan_fixture("good_d1_attach_order.cpp").empty());
}

TEST(FixtureGood, D1OrderedEmission) {
    // Attach-order vector for emission + lookup-only unordered index (even
    // iterated, as long as no emit rides the loop) scans fully clean.
    const auto findings = scan_fixture("good_d1_ordered_emit.cpp");
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D1OrderedSerialization) {
    // Trial-index vector + key-sorted std::map for serialization, with the
    // unordered index iterated only for an order-free count: fully clean.
    const auto findings = scan_fixture("good_d1_ordered_serialize.cpp");
    EXPECT_TRUE(findings.empty());
}

TEST(FixtureGood, D3MergeHelpers) {
    EXPECT_TRUE(scan_fixture("good_d3_merge_helpers.cpp").empty());
}

TEST(FixtureGood, S1NamedConstants) {
    const auto findings = scan_fixture("good_s1_named.cpp");
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
    const auto findings = scan_snippet("src/obs/t.cpp", src);
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
    const auto findings = scan_snippet("src/world/t.cpp", src);
    EXPECT_EQ(count_rule(findings, Rule::kD1), 1);
    EXPECT_EQ(findings.at(0).line, 3);
}

TEST(RuleS1, ScopedByTheTreePathNotByTheCheckoutName) {
    // Two checkouts whose paths already hold "src/link/", one named link
    // inside a directory named src and one named src inside that: the S1
    // fixture placed under a checkout's examples/ must stay clean and under
    // its src/link/ must give the fixture's own findings, whether the
    // checkout, its two subtrees or the two files are the scanned roots.
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::path(::testing::TempDir()) / ("lint-scope-" + std::to_string(::getpid()));
    fs::remove_all(scratch);
    std::ifstream in(fixture("bad_s1_magic.cpp"));
    std::string source((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    source.erase(0, source.find('\n') + 1);  // drop the lint-fixture-path header
    const int expected = count_rule(scan_fixture("bad_s1_magic.cpp"), Rule::kS1);
    ASSERT_GT(expected, 0);

    for (const fs::path& checkout :
         {scratch / "a" / "src" / "link", scratch / "b" / "src" / "link" / "src"}) {
        const fs::path examples = checkout / "examples";
        const fs::path link = checkout / "src" / "link";
        for (const fs::path& dir : {examples, link}) {
            fs::create_directories(dir);
            std::ofstream(dir / "timing.cpp") << source;
        }
        std::ofstream(checkout / "src" / "CMakeLists.txt");  // what marks a checkout

        const std::vector<std::vector<std::string>> root_sets = {
            {checkout.string()},
            {(checkout / "src").string(), examples.string() + "/"},
            {(examples / "timing.cpp").string(), (link / "timing.cpp").string()}};
        for (const auto& roots : root_sets) {
            const Analysis analysis = analyze_paths(roots);
            ASSERT_EQ(analysis.files_scanned, 2) << roots.front();
            int in_examples = 0;
            int in_src = 0;
            for (const Finding& f : analysis.findings) {
                if (f.rule != Rule::kS1) continue;
                ++(f.file.find("/examples/") != std::string::npos ? in_examples : in_src);
            }
            EXPECT_EQ(in_examples, 0) << roots.front();
            EXPECT_EQ(in_src, expected) << roots.front();
        }
    }
    fs::remove_all(scratch);
}

TEST(RuleD3, OnlyRunsInStatsLayer) {
    const std::string src = "double a(double x) { double s = 0; s += x; return s; }";
    EXPECT_EQ(count_rule(scan_snippet("src/obs/a.cpp", src), Rule::kD3), 1);
    EXPECT_EQ(count_rule(scan_snippet("src/world/a.cpp", src), Rule::kD3), 1);
    EXPECT_TRUE(scan_snippet("src/sim/a.cpp", src).empty());
}

TEST(RuleS1, OnlyRunsInPhyAndLink) {
    const std::string src = "Duration d() { return 150_us; }";
    EXPECT_EQ(count_rule(scan_snippet("src/phy/t.cpp", src), Rule::kS1), 1);
    EXPECT_EQ(count_rule(scan_snippet("src/link/t.cpp", src), Rule::kS1), 1);
    EXPECT_TRUE(scan_snippet("src/sim/t.cpp", src).empty());
}

TEST(RuleS1, ConstexprScopeInheritanceExemptsBodies) {
    // A constexpr function body is a named-constant factory: literals inside
    // it (any brace depth) are exempt; the same body without constexpr is not.
    const std::string body = " int f() { if (true) { return 37; } return 39; }";
    EXPECT_TRUE(scan_snippet("src/link/t.cpp", "constexpr" + body).empty());
    EXPECT_EQ(count_rule(scan_snippet("src/link/t.cpp", body), Rule::kS1), 2);
}

TEST(RuleS1, SmallTimeLiteralsCarryNoSpecMeaning) {
    const auto findings =
        scan_snippet("src/link/t.cpp", "Duration z() { return 0_us + 1_us; }");
    EXPECT_TRUE(findings.empty());
}

// --- reporting ---

TEST(Reporting, SummaryListsFindingsAndTotals) {
    const auto findings = scan_fixture("bad_s1_magic.cpp");
    const std::string text = summary(findings, 1);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // 3 findings + totals
    EXPECT_NE(text.find("bad_s1_magic.cpp:12: [S1] bare timing literal '150_us'"),
              std::string::npos);
    EXPECT_NE(text.find("injectable_lint: 1 files, 3 findings\n"), std::string::npos);
    EXPECT_EQ(summary({}, 2), "injectable_lint: 2 files, 0 findings\n");
}

TEST(Reporting, ScanPathsWalksTheFixtureCorpus) {
    const Analysis analysis = analyze_paths({LINT_FIXTURE_DIR});
    EXPECT_EQ(analysis.files_scanned, 15);  // 9 bad_* + 6 good_* fixtures
    EXPECT_FALSE(analysis.findings.empty());
    EXPECT_EQ(analyze_paths({"/nonexistent/injectable"}).files_scanned, -1);
}

TEST(Reporting, OverlappingRootsScanEachFileOnce) {
    // A directory plus a file it already contains, plus the same directory
    // again: each fixture is scanned and reported exactly once, sorted.
    const Analysis base = analyze_paths({LINT_FIXTURE_DIR});
    const Analysis deduped =
        analyze_paths({LINT_FIXTURE_DIR, fixture("bad_s1_magic.cpp"), LINT_FIXTURE_DIR});
    EXPECT_EQ(base.files_scanned, deduped.files_scanned);
    const std::vector<Finding>& once = base.findings;
    const std::vector<Finding>& overlapped = deduped.findings;
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
    // Enums and switches are no longer summarized: switch exhaustiveness is
    // the compiler's (-Werror=switch).  A TU full of them still yields its
    // includes and no findings.
    const std::string src =
        "#include <vector>\n"
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
    ASSERT_EQ(s.includes.size(), 2u);
    EXPECT_TRUE(s.includes[0].angled);
    EXPECT_EQ(s.includes[1].path, "campaign/wire.hpp");
    EXPECT_EQ(s.includes[1].line, 2);
    EXPECT_TRUE(s.findings.empty());
}

// --- layer ranking ---

TEST(Layering, RanksFollowTheDeclaredOrder) {
    EXPECT_EQ(layer_rank("src/common/rng.hpp"), 0);
    EXPECT_EQ(layer_rank("/abs/tree/src/obs/bus.hpp"), 1);
    EXPECT_EQ(layer_rank("phy/frame.hpp"), layer_rank("sim/medium.hpp"));
    EXPECT_LT(layer_rank("link/connection.hpp"), layer_rank("host/central.hpp"));
    EXPECT_LT(layer_rank("src/core/session.cpp"), layer_rank("src/world/world.cpp"));
    EXPECT_LT(layer_rank("src/world/world.cpp"), layer_rank("tools/trace_replay.cpp"));
    EXPECT_EQ(layer_rank("tools/trace_replay.cpp"), layer_rank("injectable_lint/lint.hpp"));
    EXPECT_LT(layer_rank("tools/x/main.cpp"), layer_rank("bench/bench_micro.cpp"));
    EXPECT_EQ(layer_rank("vector"), -1);
    EXPECT_EQ(layer_rank("local_header.hpp"), -1);
    EXPECT_STREQ(layer_name(0), "common");
    EXPECT_STREQ(layer_name(8), "tools");
}

// --- L1: architecture layering ---

TEST(FixtureL1, UpwardIncludeIsAFinding) {
    const auto findings = scan_fixture("bad_l1_upward.cpp");
    ASSERT_EQ(count_rule(findings, Rule::kL1), 1);
    const auto& f = findings.front();
    EXPECT_NE(f.message.find("layering violation"), std::string::npos);
    EXPECT_NE(f.message.find("world/world.hpp"), std::string::npos);
}

TEST(FixtureL1, DownwardIncludesAreClean) {
    EXPECT_TRUE(scan_fixture("good_l1_layering.cpp").empty());
}

TEST(FixtureL1, CommentedUpwardIncludeIsAFinding) {
    // A comment arguing for the edge excuses nothing: there are no
    // suppressions, so core including a world header fails like any other.
    const auto findings = scan_fixture("bad_l1_commented_upward.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings.front().rule, Rule::kL1);
    EXPECT_EQ(findings.front().line, 8);
    EXPECT_NE(findings.front().message.find("core (rank 6) includes \"world/world.hpp\""),
              std::string::npos);
}

TEST(FixtureL1, IncludeCycleFlagsBothEdges) {
    const auto findings = scan_fixtures({"bad_l1_cycle_a.cpp", "bad_l1_cycle_b.cpp"});
    EXPECT_EQ(count_rule(findings, Rule::kL1), 2);
    for (const Finding& f : findings)
        EXPECT_NE(f.message.find("include cycle"), std::string::npos);
    // Each file alone has an unresolvable include: no cycle, no finding.
    EXPECT_TRUE(scan_fixture("bad_l1_cycle_a.cpp").empty());
}

TEST(RuleL1, RealTreeLayerOrderHasNoUpwardEdgesByConstruction) {
    // Inline mirror of every directory-level edge in the real tree's
    // include graph (lint.tree fails on any upward one), as file -> included
    // families: each edge must point downward or stay same-rank.
    const std::pair<const char*, const char*> edges[] = {
        {"src/att/a.cpp", "common"},
        {"src/core/a.cpp", "att common host link phy sim"},
        {"src/crypto/a.cpp", "common link"},
        {"src/dongle/a.cpp", "common core"},
        {"src/gatt/a.cpp", "att"},
        {"src/host/a.cpp", "att common crypto link"},
        {"src/ids/a.cpp", "core obs"},
        {"src/link/a.cpp", "common obs phy sim"},
        {"src/obs/a.cpp", "common"},
        {"src/phy/a.cpp", "common sim"},
        {"src/sim/a.cpp", "common obs"},
        {"src/world/a.cpp", "common core gatt host link obs phy sim"},
        {"tools/a/b.cpp", "campaign_report common injectable_lint obs world"},
        {"bench/a.cpp", "common core crypto gatt ids link obs phy sim world"},
        {"examples/a.cpp", "core dongle gatt ids link obs world"},
    };
    for (const auto& [from, targets] : edges) {
        std::istringstream families(targets);
        for (std::string to; families >> to;) {
            EXPECT_GE(layer_rank(from), layer_rank(to + "/x.hpp"))
                << from << " -> " << to << " would be an upward edge";
        }
    }
}

}  // namespace
}  // namespace injectable::lint
