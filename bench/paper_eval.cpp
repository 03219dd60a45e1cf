// Prints the paper's evaluation tables (bench/paper.hpp):
//
//   paper_eval          every table, in registry order
//   paper_eval <id>     one table, e.g. `paper_eval exp1`
//
// Every series runs through world::run_series, so BENCH_JOBS and the
// INJECTABLE_* variables (DESIGN.md §7) act on each one; the tables are
// byte-identical for any BENCH_JOBS.  An unknown id exits 2 and lists the
// valid ones.
#include <cstdio>

#include "paper.hpp"

int main(int argc, char** argv) {
    using namespace injectable::paper;

    if (argc == 1) {
        for (const Table& table : tables()) print(table);
        return 0;
    }
    if (argc == 2) {
        for (const Table& table : tables()) {
            if (table.id == argv[1]) {
                print(table);
                return 0;
            }
        }
        std::fprintf(stderr, "%s: unknown table '%s'\n", argv[0], argv[1]);
    }
    std::fprintf(stderr, "usage: %s [<table id>]\nvalid ids:", argv[0]);
    for (const Table& table : tables()) std::fprintf(stderr, " %s", table.id.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}
