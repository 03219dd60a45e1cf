// Phase 2 (DESIGN.md §8): the whole-program architecture-layering rule (L1)
// over merged FileSummary records.
#include "injectable_lint/lint.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace injectable::lint {

namespace {

/// The directory family a logical path belongs to: the component after the
/// last `src/` segment, the tool/bench root itself, or the first component
/// for include-style relative paths ("link/connection.hpp").  Empty when the
/// path carries no layer information (bare file names, system headers).
std::string layer_component(std::string_view path) {
    std::vector<std::string_view> parts;
    std::size_t i = 0;
    while (i <= path.size()) {
        std::size_t j = path.find('/', i);
        if (j == std::string_view::npos) j = path.size();
        if (j > i) parts.push_back(path.substr(i, j - i));
        i = j + 1;
    }
    if (parts.empty()) return "";
    for (std::size_t k = parts.size(); k-- > 0;) {
        if (parts[k] == "src" && k + 1 < parts.size()) return std::string(parts[k + 1]);
        if ((parts[k] == "tools" || parts[k] == "bench" || parts[k] == "examples" ||
             parts[k] == "tests") &&
            k + 1 < parts.size()) {
            return std::string(parts[k]);
        }
    }
    // Include-style path: the first component names the family directly —
    // but only when there actually is a directory component.
    return parts.size() > 1 ? std::string(parts.front()) : "";
}

int family_rank(std::string_view family) noexcept {
    if (family == "common") return 0;
    if (family == "obs") return 1;
    if (family == "phy" || family == "sim") return 2;
    if (family == "link" || family == "crypto") return 3;
    if (family == "att" || family == "gatt") return 4;
    if (family == "host") return 5;
    if (family == "core") return 6;
    if (family == "ids" || family == "dongle" || family == "world") return 7;
    if (family == "tools" || family == "injectable_lint" || family == "campaign_report") return 8;
    if (family == "bench" || family == "examples" || family == "tests") return 9;
    return -1;
}

}  // namespace

int layer_rank(std::string_view logical_path) noexcept {
    return family_rank(layer_component(logical_path));
}

const char* layer_name(int rank) noexcept {
    switch (rank) {
        case 0: return "common";
        case 1: return "obs";
        case 2: return "phy/sim";
        case 3: return "link/crypto";
        case 4: return "att/gatt";
        case 5: return "host";
        case 6: return "core";
        case 7: return "ids/dongle/world";
        case 8: return "tools";
        case 9: return "bench/examples/tests";
        default: return "?";
    }
}

/// L1 — architecture layering.  Upward edges are judged from the include
/// spelling alone (the include does not need to be in the scan set); cycles
/// are detected on the resolved file-level graph.
void run_cross_tu_rules(const std::vector<FileSummary>& files, std::vector<Finding>& out) {
    for (const FileSummary& f : files) {
        const int from = layer_rank(f.logical);
        if (from < 0) continue;
        for (const IncludeDirective& inc : f.includes) {
            if (inc.angled) continue;
            const int to = layer_rank(inc.path);
            if (to < 0 || to <= from) continue;
            out.push_back({Rule::kL1, f.path, inc.line,
                           "layering violation: " + std::string(layer_name(from)) +
                               " (rank " + std::to_string(from) + ") includes \"" +
                               inc.path + "\" from " + layer_name(to) + " (rank " +
                               std::to_string(to) +
                               "); dependencies must point down the layer order, so "
                               "invert the dependency (callback/interface in the lower "
                               "layer) or move the shared piece down"});
        }
    }

    // Resolve include spellings to scanned files: a file is reachable under
    // its logical path and under that path relative to its src/tools root.
    std::map<std::string, int> by_key;
    const auto add_key = [&](std::string key, int index) {
        if (!key.empty()) by_key.emplace(std::move(key), index);
    };
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string& logical = files[i].logical;
        add_key(logical, static_cast<int>(i));
        for (const std::string_view marker : {"src/", "tools/"}) {
            const std::size_t pos = logical.rfind(marker);
            if (pos != std::string::npos && (pos == 0 || logical[pos - 1] == '/'))
                add_key(logical.substr(pos + marker.size()), static_cast<int>(i));
        }
    }
    struct Edge {
        int from;
        int to;
        const IncludeDirective* inc;
    };
    std::vector<Edge> edges;
    std::vector<std::vector<int>> adj(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        for (const IncludeDirective& inc : files[i].includes) {
            if (inc.angled) continue;
            const auto it = by_key.find(inc.path);
            if (it == by_key.end()) continue;
            edges.push_back({static_cast<int>(i), it->second, &inc});
            adj[i].push_back(it->second);
        }
    }

    // Tarjan SCC (iterative): any edge inside a multi-node component — or a
    // self-include — participates in a cycle.
    const int n = static_cast<int>(files.size());
    std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int next_index = 0, next_comp = 0;
    struct Frame {
        int v;
        std::size_t child;
    };
    for (int root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        std::vector<Frame> work{{root, 0}};
        index[root] = low[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;
        while (!work.empty()) {
            Frame& fr = work.back();
            if (fr.child < adj[fr.v].size()) {
                const int w = adj[fr.v][fr.child++];
                if (index[w] == -1) {
                    index[w] = low[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = true;
                    work.push_back({w, 0});
                } else if (on_stack[w]) {
                    low[fr.v] = std::min(low[fr.v], index[w]);
                }
                continue;
            }
            if (low[fr.v] == index[fr.v]) {
                int w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    comp[w] = next_comp;
                } while (w != fr.v);
                ++next_comp;
            }
            const int v = fr.v;
            work.pop_back();
            if (!work.empty()) low[work.back().v] = std::min(low[work.back().v], low[v]);
        }
    }
    std::vector<int> comp_size(next_comp, 0);
    for (int v = 0; v < n; ++v) ++comp_size[comp[v]];
    for (const Edge& e : edges) {
        const bool in_cycle =
            (comp[e.from] == comp[e.to]) && (comp_size[comp[e.from]] > 1 || e.from == e.to);
        if (!in_cycle) continue;
        out.push_back({Rule::kL1, files[e.from].path, e.inc->line,
                       "include cycle: \"" + files[e.from].logical + "\" -> \"" +
                           e.inc->path +
                           "\" closes a cycle in the project include graph; break it "
                           "with a forward declaration or by moving the shared "
                           "declarations into a lower-layer header"});
    }
}

}  // namespace injectable::lint
