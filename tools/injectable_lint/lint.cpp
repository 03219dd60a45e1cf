#include "injectable_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace injectable::lint {

namespace {

bool is_ident_start(char c) noexcept {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) noexcept {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Multi-char punctuators merged by the lexer.  `>`-leading sequences are
/// deliberately left as single chars so template-argument scanning can treat
/// every `>` as one closing bracket (`map<K, vector<V>>` lexes as two `>`).
constexpr std::string_view kPuncts2[] = {"::", "->", "+=", "-=", "*=", "/=", "%=",
                                         "&=", "|=", "^=", "==", "!=", "<=", "&&",
                                         "||", "++", "--", "<<"};

}  // namespace

const char* rule_name(Rule rule) noexcept {
    switch (rule) {
        case Rule::kD1: return "D1";
        case Rule::kD3: return "D3";
        case Rule::kS1: return "S1";
        case Rule::kL1: return "L1";
    }
    return "?";
}

TokenStream tokenize(std::string_view src) {
    TokenStream out;
    std::size_t i = 0;
    int line = 1;
    bool line_start = true;  // only whitespace seen since the last newline

    auto advance_over = [&](std::string_view text) {
        for (char c : text) {
            if (c == '\n') ++line;
        }
        i += text.size();
    };

    while (i < src.size()) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            line_start = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        // Preprocessor directive: collect #include targets, then skip the
        // whole directive.  A backslash at end of line (LF or CRLF — the
        // carriage return cost a real leak: a CRLF macro body used to spill
        // its tokens into the rule scans) continues the directive.
        if (c == '#' && line_start) {
            const int directive_line = line;
            std::size_t j = i + 1;
            while (j < src.size() && (src[j] == ' ' || src[j] == '\t')) ++j;
            std::size_t word_end = j;
            while (word_end < src.size() && is_ident_char(src[word_end])) ++word_end;
            if (src.substr(j, word_end - j) == "include") {
                std::size_t p = word_end;
                while (p < src.size() && (src[p] == ' ' || src[p] == '\t')) ++p;
                if (p < src.size() && (src[p] == '"' || src[p] == '<')) {
                    const char closer = src[p] == '<' ? '>' : '"';
                    std::size_t q = p + 1;
                    while (q < src.size() && src[q] != closer && src[q] != '\n') ++q;
                    if (q < src.size() && src[q] == closer) {
                        out.includes.push_back({std::string(src.substr(p + 1, q - p - 1)),
                                                closer == '>', directive_line});
                    }
                }
            }
            while (i < src.size()) {
                if (src[i] == '\\') {
                    std::size_t nl = i + 1;
                    if (nl < src.size() && src[nl] == '\r') ++nl;
                    if (nl < src.size() && src[nl] == '\n') {
                        ++line;
                        i = nl + 1;
                        continue;
                    }
                }
                if (src[i] == '\n') break;
                ++i;
            }
            continue;
        }
        line_start = false;
        // Comments (dropped, like string literals).
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            const std::size_t end = src.find('\n', i);
            i = end == std::string_view::npos ? src.size() : end;
            continue;
        }
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            const std::size_t end = src.find("*/", i + 2);
            const std::size_t stop = end == std::string_view::npos ? src.size() : end + 2;
            advance_over(src.substr(i, stop - i));
            continue;
        }
        // String literal (contents can never trigger a rule: dropped).
        if (c == '"') {
            ++i;
            while (i < src.size() && src[i] != '"') {
                if (src[i] == '\\' && i + 1 < src.size()) ++i;
                if (src[i] == '\n') ++line;
                ++i;
            }
            if (i < src.size()) ++i;  // closing quote
            continue;
        }
        if (c == '\'') {
            ++i;
            while (i < src.size() && src[i] != '\'') {
                if (src[i] == '\\' && i + 1 < src.size()) ++i;
                ++i;
            }
            if (i < src.size()) ++i;
            continue;
        }
        // pp-number: digits, identifier chars, digit separators, and
        // exponent signs — so `8_us`, `0x555555` and `1'000` stay single
        // tokens, exactly like the real lexer's preprocessing numbers.
        if (is_digit(c) || (c == '.' && i + 1 < src.size() && is_digit(src[i + 1]))) {
            const std::size_t start = i;
            ++i;
            while (i < src.size()) {
                const char d = src[i];
                if (is_ident_char(d) || d == '\'' || d == '.') {
                    ++i;
                    continue;
                }
                if ((d == '+' || d == '-') && i > start) {
                    const char prev = src[i - 1];
                    if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
                        ++i;
                        continue;
                    }
                }
                break;
            }
            out.tokens.push_back({TokenKind::kNumber, std::string(src.substr(start, i - start)), line});
            continue;
        }
        if (is_ident_start(c)) {
            const std::size_t start = i;
            while (i < src.size() && is_ident_char(src[i])) ++i;
            std::string text(src.substr(start, i - start));
            // Raw string literal: R"delim( ... )delim" — skip it whole.
            if (i < src.size() && src[i] == '"' &&
                (text == "R" || text == "u8R" || text == "uR" || text == "UR" || text == "LR")) {
                const std::size_t paren = src.find('(', i + 1);
                if (paren != std::string_view::npos) {
                    const std::string delim(src.substr(i + 1, paren - i - 1));
                    const std::string closer = ")" + delim + "\"";
                    const std::size_t end = src.find(closer, paren + 1);
                    const std::size_t stop =
                        end == std::string_view::npos ? src.size() : end + closer.size();
                    advance_over(src.substr(i, stop - i));
                    continue;
                }
            }
            out.tokens.push_back({TokenKind::kIdentifier, std::move(text), line});
            continue;
        }
        // Punctuator: maximal munch over the two-char table.
        if (i + 1 < src.size()) {
            const std::string_view two = src.substr(i, 2);
            const auto* hit = std::find(std::begin(kPuncts2), std::end(kPuncts2), two);
            if (hit != std::end(kPuncts2)) {
                out.tokens.push_back({TokenKind::kPunct, std::string(two), line});
                i += 2;
                continue;
            }
        }
        out.tokens.push_back({TokenKind::kPunct, std::string(1, c), line});
        ++i;
    }
    return out;
}

namespace {

/// True if `needle`, a path fragment that starts with a directory name,
/// occurs in `path` at the start of a component: "src/" matches
/// "src/phy/crc.cpp" and "repo/src/phy/crc.cpp", never "asan-src/examples".
bool path_contains(const std::string& path, std::string_view needle) {
    for (std::size_t pos = path.find(needle); pos != std::string::npos;
         pos = path.find(needle, pos + 1)) {
        if (pos == 0 || path[pos - 1] == '/') return true;
    }
    return false;
}

/// Numeric value of a pp-number's leading digits (hex or decimal, digit
/// separators stripped, suffixes ignored).  nullopt for floating literals.
std::optional<std::uint64_t> literal_value(std::string_view text) {
    std::uint64_t value = 0;
    std::size_t i = 0;
    bool hex = false;
    if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
        hex = true;
        i = 2;
    }
    bool any = false;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\'') continue;
        if (c == '.' || ((c == 'e' || c == 'E') && !hex)) return std::nullopt;  // float
        int digit = -1;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (hex && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (hex && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else break;  // suffix
        value = value * (hex ? 16u : 10u) + static_cast<std::uint64_t>(digit);
        any = true;
    }
    if (!any) return std::nullopt;
    return value;
}

/// Duration-literal suffix (common/time.hpp user-defined literals).
bool has_time_suffix(std::string_view text) {
    return text.ends_with("_ns") || text.ends_with("_us") || text.ends_with("_ms") ||
           text.ends_with("_s");
}

struct Scanner {
    const std::string& file;
    const std::vector<Token>& toks;
    std::vector<Finding>& findings;

    void emit(Rule rule, int line, std::string message) {
        findings.push_back({rule, file, line, std::move(message)});
    }

    const Token* at(std::size_t i) const { return i < toks.size() ? &toks[i] : nullptr; }
    bool punct_at(std::size_t i, std::string_view p) const {
        const Token* t = at(i);
        return t != nullptr && t->kind == TokenKind::kPunct && t->text == p;
    }

    // D1: pointer-keyed unordered containers.  Flags the declaration — any
    // iteration over one visits heap-address order.
    void rule_d1() {
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token& t = toks[i];
            if (t.kind != TokenKind::kIdentifier ||
                (t.text != "unordered_map" && t.text != "unordered_set")) {
                continue;
            }
            if (!punct_at(i + 1, "<")) continue;
            const bool is_map = t.text == "unordered_map";
            int angle = 1;
            int paren = 0;
            bool pointer_key = false;
            std::string key_text;
            for (std::size_t j = i + 2; j < toks.size() && angle > 0; ++j) {
                const Token& u = toks[j];
                if (u.kind == TokenKind::kPunct) {
                    if (u.text == "<") ++angle;
                    else if (u.text == ">") --angle;
                    else if (u.text == "(") ++paren;
                    else if (u.text == ")") --paren;
                    if (angle == 0) break;
                    if (is_map && u.text == "," && angle == 1 && paren == 0) break;
                    if (u.text == "*" && !key_text.empty()) pointer_key = true;
                }
                if (key_text.size() < 48) {
                    if (!key_text.empty()) key_text += ' ';
                    key_text += u.text;
                }
            }
            if (pointer_key) {
                emit(Rule::kD1, t.line,
                     "pointer-keyed std::" + t.text + "<" + key_text +
                         ", ...>: iteration order is heap-address order and varies run to "
                         "run; use an attach-order vector or a stable-index map");
            }
        }
    }

    // D1 (extension): event emission from inside iteration over *any*
    // std::unordered_* container.  The declaration pass above only catches
    // pointer keys, but hash order is unspecified for every key type — it
    // varies across standard libraries, hash seeds and runs — so an emit /
    // dispatch inside such a loop reorders the trace even when the key
    // compares deterministically.
    void rule_d1_unordered_emit() {
        static const std::set<std::string, std::less<>> kEmitters = {
            // Event emission: the order the bus sees events in becomes the
            // trace, so it must not be hash order.
            "emit", "dispatch", "on_event",
            // Result serialization: the order values hit the byte stream
            // becomes the record, which must be byte-identical across
            // reruns and worker counts (DESIGN.md §6).
            "to_json", "to_jsonl", "json_escape", "append_json_escaped", "append_escaped",
            "encode_frame", "append_frame", "on_artifact", "on_series_record"};
        // Pass 1: names declared (member, local or parameter) with an
        // unordered container type.
        std::set<std::string> unordered_vars;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token& t = toks[i];
            if (t.kind != TokenKind::kIdentifier || !t.text.starts_with("unordered_"))
                continue;
            if (!punct_at(i + 1, "<")) continue;
            int angle = 1;
            std::size_t j = i + 2;
            for (; j < toks.size() && angle > 0; ++j) {
                if (punct_at(j, "<")) ++angle;
                else if (punct_at(j, ">")) --angle;
            }
            while (j < toks.size() && toks[j].kind == TokenKind::kPunct &&
                   (toks[j].text == "&" || toks[j].text == "*")) {
                ++j;
            }
            const Token* name = at(j);
            if (name != nullptr && name->kind == TokenKind::kIdentifier)
                unordered_vars.insert(name->text);
        }
        if (unordered_vars.empty()) return;
        // Pass 2: range-for statements whose range expression mentions one
        // of those names and whose body reaches an emitter call.  (`::`
        // lexes merged, so a single `:` at paren depth 1 is the range colon.)
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "for") continue;
            if (!punct_at(i + 1, "(")) continue;
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = i + 1;
            for (; close < toks.size(); ++close) {
                if (punct_at(close, "(")) ++depth;
                else if (punct_at(close, ")")) {
                    if (--depth == 0) break;
                } else if (depth == 1 && punct_at(close, ":")) {
                    colon = close;
                }
            }
            if (close >= toks.size() || colon == 0) continue;  // not a range-for
            std::string range_var;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (toks[j].kind == TokenKind::kIdentifier &&
                    unordered_vars.count(toks[j].text) > 0) {
                    range_var = toks[j].text;
                    break;
                }
            }
            if (range_var.empty()) continue;
            // Body extent: braced block, or a single statement up to ';'.
            std::size_t body_begin = close + 1;
            std::size_t body_end = body_begin;
            if (punct_at(body_begin, "{")) {
                int braces = 0;
                for (; body_end < toks.size(); ++body_end) {
                    if (punct_at(body_end, "{")) ++braces;
                    else if (punct_at(body_end, "}") && --braces == 0) break;
                }
            } else {
                while (body_end < toks.size() && !punct_at(body_end, ";")) ++body_end;
            }
            for (std::size_t j = body_begin; j < body_end && j < toks.size(); ++j) {
                const Token& u = toks[j];
                if (u.kind == TokenKind::kIdentifier && kEmitters.count(u.text) > 0 &&
                    punct_at(j + 1, "(")) {
                    emit(Rule::kD1, toks[i].line,
                         "event emission / result serialization ('" + u.text +
                             "') inside iteration over std::unordered_* container '" +
                             range_var +
                             "': hash order is unspecified and varies run to run, so "
                             "the emitted event order (or serialized byte stream) is "
                             "nondeterministic; iterate an ordered or attach-order "
                             "view");
                    break;
                }
            }
        }
    }

    // D3: float/double accumulation in the stats layer.  FP addition is not
    // associative, so accumulation order becomes part of the result.
    void rule_d3() {
        std::set<std::string> fp_vars;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            const Token& t = toks[i];
            if (t.kind != TokenKind::kIdentifier || (t.text != "float" && t.text != "double"))
                continue;
            std::size_t j = i + 1;
            if (punct_at(j, "&")) ++j;  // reference bindings accumulate too
            const Token* name = at(j);
            if (name == nullptr || name->kind != TokenKind::kIdentifier) continue;
            if (punct_at(j + 1, "(")) continue;  // function returning double
            fp_vars.insert(name->text);
        }
        if (fp_vars.empty()) return;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token& t = toks[i];
            if (t.kind != TokenKind::kIdentifier || fp_vars.count(t.text) == 0) continue;
            const bool compound = punct_at(i + 1, "+=") || punct_at(i + 1, "-=");
            const bool re_add = punct_at(i + 1, "=") && i + 2 < toks.size() &&
                                toks[i + 2].kind == TokenKind::kIdentifier &&
                                toks[i + 2].text == t.text &&
                                (punct_at(i + 3, "+") || punct_at(i + 3, "-"));
            if (compound || re_add) {
                emit(Rule::kD3, t.line,
                     "float/double accumulation into '" + t.text +
                         "' in the stats layer: FP addition is order-dependent; use the "
                         "integer merge helpers (MetricsSnapshot/HistogramSnapshot) or an "
                         "integer sum");
            }
        }
    }

    // S1: bare spec magic numbers in src/phy / src/link.  Named constexpr
    // declarations, static_asserts and enums are exactly where the named
    // constants live, so literals there are exempt.
    void rule_s1() {
        static const std::set<std::uint64_t> kSpecValues = {37,  39,       40,
                                                            150, 625,      1250,
                                                            176, 0x555555, 0x8E89BED6};
        std::vector<char> scopes = {0};
        bool stmt_exempt = false;
        for (const Token& t : toks) {
            if (t.kind == TokenKind::kPunct) {
                if (t.text == "{") {
                    scopes.push_back(static_cast<char>(scopes.back() != 0 || stmt_exempt));
                    stmt_exempt = false;
                } else if (t.text == "}") {
                    if (scopes.size() > 1) scopes.pop_back();
                    stmt_exempt = false;
                } else if (t.text == ";") {
                    stmt_exempt = false;
                }
                continue;
            }
            if (t.kind == TokenKind::kIdentifier) {
                if (t.text == "constexpr" || t.text == "constinit" || t.text == "consteval" ||
                    t.text == "static_assert" || t.text == "enum") {
                    stmt_exempt = true;
                }
                continue;
            }
            // Number token.
            if (stmt_exempt || scopes.back() != 0) continue;
            const auto value = literal_value(t.text);
            if (!value) continue;
            if (has_time_suffix(t.text)) {
                if (*value < 2) continue;  // 0_us / 1_us carry no spec meaning
                emit(Rule::kS1, t.line,
                     "bare timing literal '" + t.text +
                         "': spec timing must be a named constexpr tied to the Core "
                         "Specification by a static_assert (see src/phy/spec.hpp)");
                continue;
            }
            if (kSpecValues.count(*value) > 0) {
                emit(Rule::kS1, t.line,
                     "bare spec constant '" + t.text +
                         "': use the named constexpr (src/phy/spec.hpp, "
                         "src/link/spec.hpp, common/time.hpp) so the value stays tied to "
                         "the spec by its static_assert");
            }
        }
    }

};

}  // namespace

FileSummary summarize_source(const std::string& file, const std::string& logical_path,
                             std::string_view source) {
    FileSummary out;
    out.path = file;
    out.logical = logical_path;
    TokenStream stream = tokenize(source);

    Scanner scanner{file, stream.tokens, out.findings};
    scanner.rule_d1();
    scanner.rule_d1_unordered_emit();
    if (path_contains(logical_path, "src/obs/") || path_contains(logical_path, "src/world/"))
        scanner.rule_d3();
    if (path_contains(logical_path, "src/phy/") || path_contains(logical_path, "src/link/"))
        scanner.rule_s1();
    std::stable_sort(out.findings.begin(), out.findings.end(),
                     [](const Finding& a, const Finding& b) { return a.line < b.line; });

    out.includes = std::move(stream.includes);  // phase 2 input
    return out;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/// The path that scopes the rules: relative to the checkout `file` sits in,
/// its nearest ancestor directory holding src/CMakeLists.txt, so
/// `<checkout>/src/phy/crc.cpp` is `src/phy/crc.cpp` whatever the checkout
/// and the directories above it are called, and however the root naming it
/// was spelt.  A file outside any checkout keeps its path as given.
std::string tree_path(const std::filesystem::path& file) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path absolute = fs::absolute(file, ec).lexically_normal();
    if (!ec) {
        for (fs::path dir = absolute.parent_path(); dir.has_relative_path();
             dir = dir.parent_path()) {
            if (fs::is_regular_file(dir / "src" / "CMakeLists.txt", ec))
                return absolute.lexically_relative(dir).generic_string();
        }
    }
    return file.lexically_normal().generic_string();
}

/// Fixtures impersonate a tree location for rule applicability while findings
/// keep reporting the real path.
std::string fixture_logical_path(const std::string& path, std::string_view source) {
    constexpr std::string_view kPathTag = "// lint-fixture-path:";
    if (!source.starts_with(kPathTag)) return path;
    const std::string_view rest = source.substr(0, source.find('\n')).substr(kPathTag.size());
    const std::size_t first = rest.find_first_not_of(" \t");
    if (first == std::string_view::npos) return {};
    return std::string(rest.substr(first, rest.find_last_not_of(" \t\r") - first + 1));
}

}  // namespace

Analysis analyze_paths(const std::vector<std::string>& roots) {
    namespace fs = std::filesystem;
    static const std::set<std::string, std::less<>> kExtensions = {".cpp", ".cc",  ".cxx",
                                                                   ".hpp", ".h",   ".hh"};
    Analysis analysis;
    // Canonical-path dedup: overlapping roots — or a file passed next to a
    // directory that already contains it — contribute each file exactly once.
    // The reported spelling is the lexicographically smallest one seen, so
    // output order is deterministic no matter how the roots were spelt.
    std::map<std::string, std::string> by_canonical;
    const auto add = [&](const fs::path& p) {
        std::error_code ec;
        const fs::path canon = fs::weakly_canonical(p, ec);
        std::string key = ec ? p.generic_string() : canon.generic_string();
        std::string reported = p.generic_string();
        auto [it, inserted] = by_canonical.emplace(std::move(key), reported);
        if (!inserted && reported < it->second) it->second = std::move(reported);
    };
    for (const std::string& root : roots) {
        std::error_code ec;
        if (fs::is_regular_file(root, ec)) {
            add(root);
            continue;
        }
        if (!fs::is_directory(root, ec)) {
            analysis.files_scanned = -1;
            return analysis;
        }
        for (fs::recursive_directory_iterator it(root, ec), end; it != end;
             it.increment(ec)) {
            if (ec) {
                analysis.files_scanned = -1;
                return analysis;
            }
            if (!it->is_regular_file(ec)) continue;
            if (kExtensions.count(it->path().extension().string()) > 0) add(it->path());
        }
    }
    std::vector<std::string> files;
    files.reserve(by_canonical.size());
    for (const auto& [canon, reported] : by_canonical) files.push_back(reported);
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Phase 1: per-TU summaries.
    std::vector<FileSummary> summaries;
    for (const std::string& file : files) {
        std::string source;
        if (!read_file(file, source)) {
            analysis.files_scanned = -1;
            return analysis;
        }
        summaries.push_back(
            summarize_source(file, fixture_logical_path(tree_path(file), source), source));
        ++analysis.files_scanned;
    }

    // Phase 2: whole-program rules over the merged summaries.
    for (const FileSummary& s : summaries) {
        analysis.findings.insert(analysis.findings.end(), s.findings.begin(),
                                 s.findings.end());
    }
    run_cross_tu_rules(summaries, analysis.findings);
    std::stable_sort(analysis.findings.begin(), analysis.findings.end(),
                     [](const Finding& a, const Finding& b) {
                         if (a.file != b.file) return a.file < b.file;
                         return a.line < b.line;
                     });
    return analysis;
}

std::string summary(const std::vector<Finding>& findings, int files_scanned) {
    std::string out;
    for (const Finding& f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + rule_name(f.rule) + "] " +
               f.message + "\n";
    }
    out += "injectable_lint: " + std::to_string(files_scanned) + " files, " +
           std::to_string(findings.size()) + " finding" + (findings.size() == 1 ? "" : "s") +
           "\n";
    return out;
}

}  // namespace injectable::lint
