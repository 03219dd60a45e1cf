// injectable_lint CLI: two-phase static analysis over source trees —
// per-TU determinism & spec-invariant rules plus the whole-program layering
// rule (see lint.hpp, DESIGN.md §8).
//
//   injectable_lint [--jsonl FILE] [--graph-dot FILE] [--suppressions]
//                   [--quiet] <path>...
//
// exits 0 when the tree is clean (suppressed findings with audited reasons
// are fine), 1 when any unsuppressed finding remains, 2 on usage/IO errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "injectable_lint/lint.hpp"

namespace {

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--jsonl FILE] [--graph-dot FILE] [--suppressions]\n"
                 "          [--quiet] <path>...\n"
                 "  Scans *.cpp/*.hpp under each path (overlapping paths are\n"
                 "  deduplicated) for determinism and spec-invariant violations:\n"
                 "    D1  pointer-keyed unordered_map/unordered_set, and event\n"
                 "        emission inside iteration over any unordered container\n"
                 "    D2  wall-clock time / unseeded randomness\n"
                 "    D3  float/double accumulation in the stats layer\n"
                 "    E1  getenv outside the edge-wiring allowlist\n"
                 "    S1  bare spec magic numbers in src/phy, src/link\n"
                 "  and one whole-program rule over the merged per-file summaries:\n"
                 "    L1  architecture layering (upward includes, include cycles)\n"
                 "  Suppress a finding with an audited comment on (or above)\n"
                 "  the line:  // injectable-lint: allow(D1) -- <reason>\n"
                 "  --jsonl FILE     also write findings as JSONL (suppressed\n"
                 "                   ones included, with their reasons)\n"
                 "  --graph-dot FILE write the include-layer graph as DOT\n"
                 "  --suppressions   print the audited allow() inventory as JSONL\n"
                 "                   (rule, file, line, reason) instead of findings\n"
                 "  --quiet          print only the totals line\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace injectable::lint;

    std::string jsonl_path;
    std::string graph_dot_path;
    bool quiet = false;
    bool suppressions_mode = false;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto needs_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--jsonl") == 0) {
            const char* value = needs_value("--jsonl");
            if (value == nullptr) return 2;
            jsonl_path = value;
            continue;
        }
        if (std::strcmp(arg, "--graph-dot") == 0) {
            const char* value = needs_value("--graph-dot");
            if (value == nullptr) return 2;
            graph_dot_path = value;
            continue;
        }
        if (std::strcmp(arg, "--suppressions") == 0) {
            suppressions_mode = true;
            continue;
        }
        if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
            continue;
        }
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage(argv[0]);
            return 0;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            print_usage(argv[0]);
            return 2;
        }
        roots.emplace_back(arg);
    }
    if (roots.empty()) {
        print_usage(argv[0]);
        return 2;
    }

    const Analysis analysis = analyze_paths(roots);
    if (analysis.files_scanned < 0) {
        std::fprintf(stderr, "%s: could not read one of the given paths\n", argv[0]);
        return 2;
    }

    if (suppressions_mode) {
        std::fputs(suppressions_jsonl(analysis.files).c_str(), stdout);
        return 0;
    }

    if (!graph_dot_path.empty()) {
        std::ofstream out(graph_dot_path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0], graph_dot_path.c_str());
            return 2;
        }
        out << include_graph_dot(analysis.files);
    }

    if (!jsonl_path.empty()) {
        std::ofstream out(jsonl_path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0], jsonl_path.c_str());
            return 2;
        }
        out << to_jsonl(analysis.findings);
    }

    const std::string text = summary(analysis.findings, analysis.files_scanned);
    if (quiet) {
        const std::size_t last_line = text.rfind('\n', text.size() - 2);
        std::fputs(last_line == std::string::npos ? text.c_str()
                                                  : text.c_str() + last_line + 1,
                   stdout);
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return unsuppressed_count(analysis.findings) > 0 ? 1 : 0;
}
