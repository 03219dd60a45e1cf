#!/usr/bin/env bash
# Runs the static-analysis pass locally, mirroring the CI `lint` job:
#
#   1. injectable_lint (per-TU rules D1, D3, S1 plus the whole-program
#      layering rule L1) over src/ tools/ bench/ examples/.  Host clocks,
#      unseeded randomness and environment reads are the lint.banned_names
#      ctest's; enum exhaustiveness and dropped scheduler handles are the
#      compiler's (-Werror=switch, -Werror=unused-result).
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
"$build_dir/tools/injectable_lint" src tools bench examples || status=$?

if command -v run-clang-tidy >/dev/null 2>&1 && [[ -f "$build_dir/compile_commands.json" ]]; then
    echo "lint.sh: running clang-tidy (profile: .clang-tidy) ..."
    run-clang-tidy -quiet -p "$build_dir" "src/.*|tools/.*|bench/.*|examples/.*" || status=$?
else
    echo "lint.sh: run-clang-tidy or $build_dir/compile_commands.json not found; skipping clang-tidy"
fi

exit $status
