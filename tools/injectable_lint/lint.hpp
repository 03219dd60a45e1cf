// injectable_lint: the determinism and spec-invariant checks that need a
// tokenizer or the include graph (DESIGN.md §8).
//
// The reproduction's core contract is bit-identical determinism for any
// worker count: a trial is a pure function of (config, seed).  PR 3's
// trace-replay diff caught a real violation only *at runtime* — RadioMedium
// delivery order leaked heap-pointer ordering through a pointer-keyed
// unordered_map.  This linter catches that whole bug class (and its
// relatives) statically, before a single trial runs.
//
// The analysis runs in two phases: phase 1 lexes every translation unit
// into a FileSummary (per-TU findings plus its include directives); phase 2
// merges the summaries and runs L1 over the whole program.
//
// Per-translation-unit rules:
//
//   D1  No pointer-keyed std::unordered_map / std::unordered_set: their
//       iteration order is heap-address order, which varies run to run, so
//       any iteration that reaches RNG draws or event emission breaks
//       replayability.  Use attach-order vectors / stable-index maps.
//       Extension: event emission (emit / dispatch / on_event) *or result
//       serialization* (to_json / to_jsonl / json_escape /
//       append_json_escaped / append_escaped / encode_frame / append_frame /
//       on_artifact / on_series_record) from inside a range-for over *any*
//       std::unordered_* container is flagged regardless of key type — hash
//       order is unspecified for every key, so the emitted event order or
//       serialized byte stream would vary across standard libraries and
//       runs.  The byte-identity contract on records and traces (DESIGN.md
//       §6) dies exactly here.
//   D3  No float/double accumulation in the stats layer (src/obs, src/world):
//       FP addition is non-associative, so accumulation order becomes part of
//       the result.  Stats use the integer merge helpers
//       (MetricsSnapshot / HistogramSnapshot) or integer sums.
//   S1  No bare spec magic numbers in src/phy / src/link: frame-layout and
//       timing constants (TIFS 150 µs, the 1250 µs unit, 8 µs/byte LE 1M
//       airtime, channel counts, the advertising access address, ...) must be
//       named constexpr values tied to the Bluetooth Core Specification by a
//       static_assert.  Literals inside constexpr declarations,
//       static_asserts and enum definitions are exempt — that is where the
//       named constants live.
//
// Whole-program rule (phase 2, over merged summaries):
//
//   L1  Architecture layering: the project include graph must respect the
//       declared layer order
//         common → obs → phy/sim → link/crypto → att/gatt → host → core →
//         ids/dongle/world → tools → bench/examples/tests
//       An include edge from a lower layer into a higher one is a finding at
//       the offending #include line, and any include cycle is a finding.
//
// Every finding is an error: there are no suppressions.  Host clocks,
// unseeded randomness and environment reads are banned by name, which a
// grep does (the lint.banned_names ctest); enum exhaustiveness and
// discarded scheduler handles are the compiler's job (-Werror=switch and
// -Werror=unused-result in the top-level CMakeLists.txt), and lock
// discipline is checked at run time by the CI TSan job.
//
// The scanner is deliberately lightweight: a real C++ tokenizer (comments,
// string/char literals, raw strings, pp-numbers, #include directives) but no
// preprocessor expansion, no name lookup, no libclang.  Token patterns per
// TU plus merged summaries are enough for every rule above, keep the tool
// dependency-free, and make it fast enough to run as a tier-1 ctest over the
// whole tree.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace injectable::lint {

enum class Rule {
    kD1,  ///< pointer-keyed unordered container
    kD3,  ///< float accumulation in the stats layer
    kS1,  ///< bare spec magic number in phy/link
    kL1,  ///< architecture layering violation / include cycle
};

[[nodiscard]] const char* rule_name(Rule rule) noexcept;

struct Finding {
    Rule rule = Rule::kD1;
    std::string file;  ///< path as reported to the user
    int line = 0;      ///< 1-based
    std::string message;
};

// --- tokenizer (exposed for the self-tests) ---

enum class TokenKind { kIdentifier, kNumber, kPunct };

struct Token {
    TokenKind kind = TokenKind::kPunct;
    std::string text;
    int line = 1;
};

/// One #include directive (the only preprocessor shape the rules need —
/// everything else on a directive line is still skipped, across
/// backslash-continuations).
struct IncludeDirective {
    std::string path;    ///< as written between the delimiters
    bool angled = false; ///< <...> (system) vs "..." (project)
    int line = 1;
};

struct TokenStream {
    std::vector<Token> tokens;
    std::vector<IncludeDirective> includes;
};

/// Lexes C++ source: comments and string/char literals dropped (their
/// contents can never trigger a rule), preprocessor directives skipped
/// except #include which is collected, numbers kept as whole pp-numbers (so
/// `8_us` and `0x555555` are single tokens).  Directive lines honour
/// backslash line-continuations (LF and CRLF) so multi-line macros never
/// leak tokens into the rule scans.
[[nodiscard]] TokenStream tokenize(std::string_view source);

// --- phase-1 summaries ---

/// Everything phase 2 needs to know about one translation unit.
struct FileSummary {
    std::string path;     ///< real path, reported in findings
    std::string logical;  ///< layer-driving path (fixture header may differ)
    std::vector<Finding> findings;  ///< per-TU findings
    std::vector<IncludeDirective> includes;
};

/// Phase 1 over one TU: tokenize, run the per-TU rules, collect the
/// cross-TU raw material.  `logical_path` drives rule applicability (which
/// directory family the file belongs to) and may differ from the reported
/// `file` path — fixtures use a `// lint-fixture-path:` first line to
/// impersonate a tree location.
[[nodiscard]] FileSummary summarize_source(const std::string& file,
                                           const std::string& logical_path,
                                           std::string_view source);

// --- phase 2: whole-program analysis ---

struct Analysis {
    std::vector<Finding> findings;  ///< per-TU + cross-TU, per-file line order
    int files_scanned = 0;
};

/// The declared architecture layer of a logical path (or of an #include
/// path's first component): higher rank = higher layer.  Returns -1 for
/// paths outside the layer map (system headers, unknown roots).
[[nodiscard]] int layer_rank(std::string_view logical_path) noexcept;
[[nodiscard]] const char* layer_name(int rank) noexcept;

/// Runs the cross-TU rule (L1) over merged summaries, appending findings.
void run_cross_tu_rules(const std::vector<FileSummary>& files, std::vector<Finding>& findings);

/// Full two-phase run: phase 1 over every *.cpp/*.hpp/*.h/*.cc under
/// `roots` (files are accepted directly too), in sorted path order, then
/// phase 2 over the merged summaries.  Overlapping roots (or a file plus its
/// parent directory) are deduplicated by canonical path, so each file is
/// scanned and reported exactly once.  Rules are scoped by each file's path
/// relative to the checkout it sits in (the nearest ancestor holding
/// src/CMakeLists.txt), so `<checkout>/src/...` is `src/...` whatever the
/// checkout is called and however the root was spelt; a file outside any
/// checkout by the path as given.  files_scanned is -1 if any root is missing.
[[nodiscard]] Analysis analyze_paths(const std::vector<std::string>& roots);

/// Human summary: `file:line: [rule] message` per finding plus a totals line.
[[nodiscard]] std::string summary(const std::vector<Finding>& findings, int files_scanned);

}  // namespace injectable::lint
