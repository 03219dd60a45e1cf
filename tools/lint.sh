#!/usr/bin/env bash
# Runs the full static-analysis pass locally, mirroring the CI `lint` job:
#
#   1. injectable_lint (two-phase: per-TU rules D1-D3, E1, S1 plus the
#      whole-program layering rule L1) over src/ tools/ bench/ examples/.
#      Writes the same artifacts CI uploads: the findings JSONL, the
#      include-layer DOT graph, and the audited allow() inventory.
#      Enum exhaustiveness and dropped scheduler handles are not lint
#      rules: every build compiles with -Werror=switch and
#      -Werror=unused-result.
#   2. clang-tidy (profile in .clang-tidy) over the same trees, when a
#      compile_commands.json and run-clang-tidy are available.
#
# usage: tools/lint.sh [build-dir]   (default: build)
set -u

cd "$(dirname "$0")/.."
build_dir=${1:-build}

if [[ ! -x "$build_dir/tools/injectable_lint" ]]; then
    echo "lint.sh: building injectable_lint in $build_dir ..."
    cmake -B "$build_dir" -S . >/dev/null || exit 2
    cmake --build "$build_dir" --target injectable_lint -j >/dev/null || exit 2
fi

status=0
"$build_dir/tools/injectable_lint" \
    --jsonl "$build_dir/lint-findings.jsonl" \
    --graph-dot "$build_dir/lint-include-graph.dot" \
    src tools bench examples || status=$?
echo "lint.sh: JSONL audit trail at $build_dir/lint-findings.jsonl"

if grep -q "UPWARD" "$build_dir/lint-include-graph.dot" 2>/dev/null; then
    echo "lint.sh: UPWARD edge in $build_dir/lint-include-graph.dot (layering broken)"
    status=1
else
    echo "lint.sh: include-layer graph at $build_dir/lint-include-graph.dot (no upward edges)"
fi

"$build_dir/tools/injectable_lint" --suppressions \
    src tools bench examples > "$build_dir/lint-suppressions.jsonl" || status=$?
echo "lint.sh: audited suppression inventory at $build_dir/lint-suppressions.jsonl"

if command -v run-clang-tidy >/dev/null 2>&1 && [[ -f "$build_dir/compile_commands.json" ]]; then
    echo "lint.sh: running clang-tidy (profile: .clang-tidy) ..."
    run-clang-tidy -quiet -p "$build_dir" "src/.*|tools/.*|bench/.*|examples/.*" || status=$?
else
    echo "lint.sh: run-clang-tidy or $build_dir/compile_commands.json not found; skipping clang-tidy"
fi

exit $status
