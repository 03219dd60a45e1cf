// injectable-lint: project-specific determinism & spec-invariant static
// analysis (DESIGN.md §8, §13).
//
// The reproduction's core contract is bit-identical determinism for any
// worker count: a trial is a pure function of (config, seed).  PR 3's
// trace-replay diff caught a real violation only *at runtime* — RadioMedium
// delivery order leaked heap-pointer ordering through a pointer-keyed
// unordered_map.  This linter catches that whole bug class (and its
// relatives) statically, before a single trial runs.
//
// The analysis runs in two phases (DESIGN.md §13): phase 1 lexes every
// translation unit into a FileSummary (per-TU findings plus the raw material
// the whole-program rules need: include directives, enum definitions, switch
// shapes, lock-acquisition nesting, suppression directives); phase 2 merges
// the summaries and runs the cross-TU rules over the whole program.
//
// Per-translation-unit rules:
//
//   D1  No pointer-keyed std::unordered_map / std::unordered_set: their
//       iteration order is heap-address order, which varies run to run, so
//       any iteration that reaches RNG draws or event emission breaks
//       replayability.  Use attach-order vectors / stable-index maps, or
//       suppress with an order-freedom argument.  Extension: event emission
//       (emit / dispatch / on_event) *or result serialization*
//       (to_json / to_jsonl / json_escape / append_json_escaped /
//       append_escaped / encode_frame / append_frame / on_artifact /
//       on_series_record) from inside a range-for over *any*
//       std::unordered_* container is flagged
//       regardless of key type — hash order is unspecified for every key,
//       so the emitted event order or serialized byte stream would vary
//       across standard libraries and runs.  The byte-identity contract on
//       records and traces (DESIGN.md §6) dies exactly here: results
//       serialized out of hash order differ from run to run.
//   D2  No wall-clock time or unseeded randomness outside the allowlisted
//       time/rng primitives: simulated time must flow from common/time.hpp
//       (sim::Scheduler) and all randomness from common/rng.hpp (seeded
//       xoshiro streams).
//   D3  No float/double accumulation in the stats layer (src/obs, src/world):
//       FP addition is non-associative, so accumulation order becomes part of
//       the result.  Stats must use the integer merge helpers
//       (MetricsSnapshot / HistogramSnapshot) or accumulate in a provably
//       fixed order (suppress with the argument).
//   D4  No discarded sim::Scheduler handles: schedule_at()/schedule_after()
//       return the [[nodiscard]] EventId that is the only way to cancel the
//       scheduled event.  A statement-position call — bare, behind a (void)
//       cast, or as the body of an if/for/while — is fire-and-forget: the
//       event can never be cancelled, which is how stale-callback bugs (a
//       timer firing into a torn-down connection) are born.  Store the
//       handle, or suppress with an argument for why cancellation can never
//       be needed.
//   E1  No environment reads (getenv / secure_getenv) in src/ outside the
//       edge-wiring allowlist: every output channel flows through an
//       explicit ResultSink (src/world/result_sink.hpp), and the classic
//       INJECTABLE_* variables are exactly one concrete sink built at the
//       edge by sink_paths_from_env().  A getenv anywhere else re-creates
//       ambient-global plumbing — config a caller can neither see in the
//       signature nor set without touching the process environment.
//   S1  No bare spec magic numbers in src/phy / src/link: frame-layout and
//       timing constants (TIFS 150 µs, the 1250 µs unit, 8 µs/byte LE 1M
//       airtime, channel counts, the advertising access address, ...) must be
//       named constexpr values tied to the Bluetooth Core Specification by a
//       static_assert.  Literals inside constexpr declarations,
//       static_asserts and enum definitions are exempt — that is where the
//       named constants live.
//   C1  Concurrency discipline: std::thread::detach() (a detached thread
//       outlives every join point and races teardown), bare mutex
//       .lock()/.unlock() calls outside RAII guards (an early return or
//       exception between them deadlocks the next locker), and mutex
//       *members* that do not document what they protect with a
//       `// guards: <state>` comment on the declaration (or the line above)
//       are all findings.
//
// Whole-program rules (phase 2, over merged summaries):
//
//   L1  Architecture layering: the project include graph must respect the
//       declared layer order
//         common → obs → phy/sim → link/crypto → att/gatt → host → core →
//         ids/dongle/world → campaign → tools → bench/examples/tests
//       An include edge from a lower layer into a higher one is a finding at
//       the offending #include line, and any include cycle is a finding.
//       The directory-level graph is exported as a deterministic DOT
//       artifact (include_graph_dot) for CI.
//   C2  Cross-TU lock order: every nested RAII guard acquisition (a guard
//       constructed while another is live in an enclosing scope) contributes
//       an edge outer-mutex → inner-mutex, merged across translation units
//       by mutex name.  A cycle in the merged order graph is the classic
//       ABBA deadlock shape — each contributing edge in the cycle is a
//       finding at its acquisition site.
//   W1  Wire/enum exhaustiveness: every enumerator of the monitored
//       wire-protocol enums (RxVerdict, CommandType, NotificationType,
//       VantageKind) must appear as a case in every switch
//       over that enum — a `default:` does not excuse a missing enumerator,
//       because `default` is exactly how a newly added frame type silently
//       falls through an encode/decode/dispatch site.  Adding a CommandType
//       without handling it everywhere fails lint, not fuzzing.
//
// Suppression (audited — the reason is mandatory and lands in the JSONL):
//
//   // injectable-lint: allow(D1) -- memo is lookup-only, never iterated
//
// on the offending line or the line directly above.  A malformed directive
// (unknown rule, missing "-- reason") is itself a finding.
//
// The scanner is deliberately lightweight: a real C++ tokenizer (comments,
// string/char literals, raw strings, pp-numbers, #include directives) but no
// preprocessor expansion, no name lookup, no libclang.  Token patterns per
// TU plus merged summaries are enough for every rule above, keep the tool
// dependency-free, and make it fast enough to run as a tier-1 ctest over the
// whole tree.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace injectable::lint {

enum class Rule {
    kD1,              ///< pointer-keyed unordered container
    kD2,              ///< wall clock / unseeded randomness
    kD3,              ///< float accumulation in the stats layer
    kD4,              ///< discarded scheduler handle (fire-and-forget event)
    kE1,              ///< environment read outside the edge-wiring allowlist
    kS1,              ///< bare spec magic number in phy/link
    kC1,              ///< concurrency discipline (detach / bare lock / undocumented mutex)
    kC2,              ///< cross-TU lock-order cycle
    kL1,              ///< architecture layering violation / include cycle
    kW1,              ///< non-exhaustive switch over a wire-protocol enum
    kBadSuppression,  ///< malformed injectable-lint directive
};

[[nodiscard]] const char* rule_name(Rule rule) noexcept;

struct Finding {
    Rule rule = Rule::kD1;
    std::string file;  ///< path as reported to the user
    int line = 0;      ///< 1-based
    std::string message;
    bool suppressed = false;
    std::string suppress_reason;  ///< audited reason (valid iff suppressed)
};

struct Options {
    /// Paths (substring match) where rule D2 never fires: the seeded rng
    /// primitives themselves.  Every other clock read, src/common/time.hpp
    /// included, needs an audited allow(D2) suppression, so the whole-tree
    /// suppression inventory lists each one.
    std::vector<std::string> d2_allowlist = {"src/common/rng."};
    /// Paths (substring match) where rule E1 never fires: the edge wiring
    /// that owns the INJECTABLE_* / BENCH_JOBS environment contract.
    std::vector<std::string> e1_allowlist = {"src/world/result_sink.cpp",
                                             "src/world/trial_runner.cpp"};
    /// Enums whose switches rule W1 holds to exhaustiveness (matched by the
    /// enum's simple name, i.e. the qualifier of the case labels).
    std::vector<std::string> w1_enums = {"RxVerdict", "CommandType", "NotificationType",
                                         "VantageKind"};
};

// --- tokenizer (exposed for the self-tests) ---

enum class TokenKind { kIdentifier, kNumber, kPunct };

struct Token {
    TokenKind kind = TokenKind::kPunct;
    std::string text;
    int line = 1;
};

struct Comment {
    std::string text;
    int line = 1;  ///< line the comment starts on
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
    std::vector<Comment> comments;
    std::vector<IncludeDirective> includes;
};

/// Lexes C++ source: comments collected separately, string/char literals
/// dropped (their contents can never trigger a rule), preprocessor directives
/// skipped except #include which is collected, numbers kept as whole
/// pp-numbers (so `8_us` and `0x555555` are single tokens).  Directive lines
/// honour backslash line-continuations (LF and CRLF) so multi-line macros
/// never leak tokens into the rule scans.
[[nodiscard]] TokenStream tokenize(std::string_view source);

// --- phase-1 summaries ---

/// A named enum definition (enum / enum class / enum struct).
struct EnumDef {
    std::string name;  ///< simple name (the case-label qualifier)
    std::vector<std::string> enumerators;
    int line = 1;
};

/// One switch statement's shape: which enum its qualified case labels name,
/// and which enumerators appear.
struct SwitchShape {
    std::string enum_name;  ///< qualifier of the case labels ("" if unqualified)
    std::vector<std::string> cases;
    bool has_default = false;
    int line = 1;
};

/// One nested guard acquisition: `outer` was held (RAII guard live in an
/// enclosing scope) when a guard over `inner` was constructed at `line`.
struct LockEdge {
    std::string outer;
    std::string inner;
    int line = 1;
};

/// One parsed allow() directive (the audited suppression inventory).
struct SuppressionRecord {
    Rule rule = Rule::kD1;
    int line = 1;
    std::string reason;
};

/// Everything phase 2 needs to know about one translation unit.
struct FileSummary {
    std::string path;     ///< real path, reported in findings
    std::string logical;  ///< layer-driving path (fixture header may differ)
    std::vector<Finding> findings;  ///< per-TU findings, suppressions applied
    std::vector<IncludeDirective> includes;
    std::vector<EnumDef> enums;
    std::vector<SwitchShape> switches;
    std::vector<LockEdge> lock_edges;
    std::vector<SuppressionRecord> suppressions;
};

/// Phase 1 over one TU: tokenize, run the per-TU rules, collect the
/// cross-TU raw material.
[[nodiscard]] FileSummary summarize_source(const std::string& file,
                                           const std::string& logical_path,
                                           std::string_view source,
                                           const Options& options = {});

// --- phase 2: whole-program analysis ---

struct Analysis {
    std::vector<FileSummary> files;  ///< sorted by reported path
    std::vector<Finding> findings;   ///< per-TU + cross-TU, per-file line order
    int files_scanned = 0;
};

/// The declared architecture layer of a logical path (or of an #include
/// path's first component): higher rank = higher layer.  Returns -1 for
/// paths outside the layer map (system headers, unknown roots).
[[nodiscard]] int layer_rank(std::string_view logical_path) noexcept;
[[nodiscard]] const char* layer_name(int rank) noexcept;

/// Runs the cross-TU rules (L1, C2, W1) over merged summaries, appending
/// findings (with each file's suppressions applied).  Exposed for tests.
void run_cross_tu_rules(const std::vector<FileSummary>& files,
                        const Options& options, std::vector<Finding>& findings);

/// Full two-phase run: phase 1 over every source file under
/// `roots`, then phase 2 over the merged summaries.  files_scanned is -1 if
/// any root is missing.
[[nodiscard]] Analysis analyze_paths(const std::vector<std::string>& roots,
                                     const Options& options = {});

/// Deterministic DOT rendering of the directory-level include graph, layer
/// ranks as clusters, upward edges highlighted.
[[nodiscard]] std::string include_graph_dot(const std::vector<FileSummary>& files);

/// The audited allow() inventory as stable JSONL (rule, file, line, reason),
/// sorted by (file, line, rule) — the CI suppression artifact.
[[nodiscard]] std::string suppressions_jsonl(const std::vector<FileSummary>& files);

// --- single-TU scanning (kept for the self-tests and simple callers) ---

/// Scans one translation unit.  `logical_path` drives rule applicability
/// (which directory family the file belongs to) and may differ from the
/// reported `file` path — fixtures use a `// lint-fixture-path:` first line
/// to impersonate a tree location.  Returns all findings, suppressed ones
/// included (they carry the audited reason into the JSONL).  Cross-TU rules
/// need merged summaries and do not run here.
[[nodiscard]] std::vector<Finding> scan_source(const std::string& file,
                                               const std::string& logical_path,
                                               std::string_view source,
                                               const Options& options = {});

/// Reads and scans a file from disk, honouring a `// lint-fixture-path:`
/// header.  Returns false only when the file cannot be read.
bool scan_file(const std::string& path, std::vector<Finding>& findings,
               const Options& options = {});

/// Recursively scans every *.cpp/*.hpp/*.h/*.cc under `roots` (files are
/// accepted directly too), in sorted path order for deterministic output.
/// Overlapping roots (or a file plus its parent directory) are deduplicated
/// by canonical path, so each file is scanned and reported exactly once.
/// Runs both phases (per-TU and cross-TU rules).  Returns the number of
/// files scanned, or -1 if any root is missing.
int scan_paths(const std::vector<std::string>& roots, std::vector<Finding>& findings,
               const Options& options = {});

// --- reporting ---

[[nodiscard]] int unsuppressed_count(const std::vector<Finding>& findings) noexcept;

/// Appends `s` as a quoted JSON string literal: the one escaper behind
/// to_jsonl and suppressions_jsonl.
void append_json_string(std::string& out, std::string_view s);

/// One JSON object per finding, one per line (stable field order).
[[nodiscard]] std::string to_jsonl(const std::vector<Finding>& findings);

/// Human summary: `file:line: [rule] message` per finding plus a totals line.
[[nodiscard]] std::string summary(const std::vector<Finding>& findings, int files_scanned);

}  // namespace injectable::lint
