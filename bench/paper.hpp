// The paper's evaluation, declared once: every table bench/golden/ pins, in
// the order `paper_eval` prints them (Tables I-II and Figs. 1-5, the §VI
// scenarios, the Fig. 9 experiments, then the §VIII and §V ablations).
//
// Nine tables are sweeps: each row is one run_series() series, printed by
// the table's Columns between its heading and footer.  The other six print
// themselves.
#pragma once

#include <string>
#include <vector>

#include "world/experiment.hpp"

namespace injectable::paper {

/// One sweep row: its printed label and the series it runs.
struct Row {
    std::string label;
    world::ExperimentConfig config;
};

/// How a sweep prints: the column header (the swept variable names the
/// first column) and one row from its series' results.
struct Columns {
    void (*header)(const std::string& variable);
    void (*row)(const std::string& label, const std::vector<world::RunResult>& results);
};

struct Table {
    std::string id;
    /// Title lines, printed before the column header.
    std::string heading;
    std::string variable;
    const Columns* columns = nullptr;
    std::vector<Row> rows;
    std::string footer;
    /// Set instead of the sweep fields above: prints the whole table.
    void (*print)() = nullptr;
};

/// Every table, in printing order.
[[nodiscard]] const std::vector<Table>& tables();

/// Prints `table` to stdout, running each of its series through the
/// environment-wired run_series() (BENCH_JOBS, INJECTABLE_*).
void print(const Table& table);

}  // namespace injectable::paper
