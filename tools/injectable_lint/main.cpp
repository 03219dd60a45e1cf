// injectable_lint CLI: two-phase static analysis over source trees —
// per-TU determinism & spec-invariant rules plus the whole-program layering
// rule (see lint.hpp, DESIGN.md §8).
//
//   injectable_lint <path>...
//
// prints every finding and a totals line; exits 0 when the tree is clean,
// 1 when any finding remains, 2 on usage/IO errors.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "injectable_lint/lint.hpp"

namespace {

void print_usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <path>...\n"
                 "  Scans *.cpp/*.hpp under each path (overlapping paths are\n"
                 "  deduplicated) for determinism and spec-invariant violations:\n"
                 "    D1  pointer-keyed unordered_map/unordered_set, and event\n"
                 "        emission inside iteration over any unordered container\n"
                 "    D3  float/double accumulation in the stats layer\n"
                 "    S1  bare spec magic numbers in src/phy, src/link\n"
                 "  and one whole-program rule over the merged per-file summaries:\n"
                 "    L1  architecture layering (upward includes, include cycles)\n"
                 "  Every finding is an error; there are no suppressions.\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace injectable::lint;

    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
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
    std::fputs(summary(analysis.findings, analysis.files_scanned).c_str(), stdout);
    return analysis.findings.empty() ? 0 : 1;
}
