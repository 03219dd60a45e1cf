#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark: a parent revision against the working tree.

Run from anywhere inside the repository:

    python3 tools/perf_ab.py HEAD~1 --workload stadium_crowd --pairs 10 --seconds 4 --seed 7

Exports <parent-rev> with `git archive` into a temporary directory and builds
its perfbench/ binary there, builds the working tree's perfbench/ next to it
(Release, both in the same temporary directory, or in --workdir, which is kept
so that a second call rebuilds only what changed), then runs --pairs pairs of
`--mode measure` launches, alternating which side goes first.  For every
end-to-end metric of BENCHMARK.json it prints the parent's and the change's
median and quartiles, how many pairs the change won, and a verdict.  As in
perfbench/run.py, each launch's setup_s is the fastest of the measured launch
and SETUP_LAUNCHES set-up-only launches around it, rotated over the allowed
CPUs; a single launch's setup_s is too noisy to compare.  Verdicts:

  gain        the change won at least 9 of 10 pairs and its median beats the
              parent's by more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound;
  unresolved  neither, but the parent's own interquartile range is wider than
              the bound and not every change run beats every parent run;
  -           none of these.

Exits 1 on a regression or on a launch that reports "correct": false, else 0.
The script reads BENCHMARK.json and perfbench/ and writes nothing in the tree.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = "injectable_perfbench"
SETUP_LAUNCHES = 6


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, **kwargs):
    try:
        subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr, check=True, **kwargs)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"{' '.join(cmd)} failed: {err}")


def export_rev(rev, workdir):
    """Extracts `rev` under `workdir` once per commit; returns its path."""
    parsed = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True)
    if parsed.returncode != 0:
        fail(f"unknown revision {rev}")
    dest = os.path.join(workdir, "parent-" + parsed.stdout.strip()[:12])
    if os.path.isdir(dest):
        return dest
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, stderr=sys.stderr)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    os.makedirs(dest + ".part")
    subprocess.run(["tar", "-x", "-C", dest + ".part"], input=archive.stdout, check=True)
    os.rename(dest + ".part", dest)
    return dest


def build(source_root, build_dir):
    run_quiet(["cmake", "-S", os.path.join(source_root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "--target", BINARY, "-j", "4"])
    return os.path.join(build_dir, BINARY)


def launch(binary, args, mode, cpu=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--mode", mode]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line[len("PERFBENCH_RESULT "):])
    fail(f"{' '.join(cmd)} printed no result")


def measure(binary, args):
    """One measured launch, its setup_s the fastest of it and the set-up-only launches."""
    cpus = sorted(os.sched_getaffinity(0))

    def setup_s(i):
        return launch(binary, args, "setup", cpus[i % len(cpus)])["metrics"]["setup_s"]

    half = SETUP_LAUNCHES // 2
    setups = [setup_s(i) for i in range(half)]
    result = launch(binary, args, "measure")
    setups += [result["metrics"]["setup_s"]] + [setup_s(i) for i in range(half, SETUP_LAUNCHES)]
    result["metrics"]["setup_s"] = min(setups)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def judge(metric, parent, change):
    """Returns the report row and whether the metric regressed."""
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gain_by = (c_med - p_med) if higher else (p_med - c_med)
    worse_share = -gain_by / abs(p_med) if p_med else 0.0
    verdict = "-"
    regressed = worse_share > metric["bound"]
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    change_always_better = all(
        (c > max(parent) if higher else c < min(parent)) for c in change)
    if regressed:
        verdict = f"regression (bound {metric['bound']:.0%})"
    elif 10 * wins >= 9 * len(parent) and gain_by > p_q3 - p_q1:
        verdict = "gain"
    elif spread > metric["bound"] and not change_always_better:
        verdict = f"unresolved (parent IQR {spread:.0%} > bound)"
    ratio = c_med / p_med if p_med else float("nan")
    row = (f"{metric['name']:<15} {f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<34}"
           f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<34}x{ratio:<7.3f}"
           f"{wins:>2}/{len(parent):<3} {verdict}")
    return row, regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="git revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", help="keep the builds here instead of a temporary directory")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        metrics = json.load(spec_file)["end_to_end"]

    scratch = args.workdir or tempfile.mkdtemp(prefix="perf_ab-")
    os.makedirs(scratch, exist_ok=True)
    try:
        print(f"perf_ab: building {args.parent_rev} and the working tree in {scratch}",
              file=sys.stderr)
        parent_src = export_rev(args.parent_rev, scratch)
        sides = {"parent": build(parent_src, parent_src + "-build"),
                 "change": build(ROOT, os.path.join(scratch, "change-build"))}

        samples = {side: {m["name"]: [] for m in metrics} for side in sides}
        incorrect = 0
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = measure(sides[side], args)
                if not result["correct"]:
                    incorrect += 1
                    print(f"perf_ab: pair {pair} {side} reported \"correct\": false",
                          file=sys.stderr)
                for m in metrics:
                    samples[side][m["name"]].append(result["metrics"][m["name"]])
            print(f"perf_ab: pair {pair + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)
    finally:
        if not args.workdir:
            shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s, "
          f"parent {args.parent_rev}: median [q1, q3]")
    print(f"{'metric':<15} {'parent':<34}{'change':<34}{'ratio':<8}{'wins':<6}verdict")
    regressions = 0
    for m in metrics:
        row, regressed = judge(m, samples["parent"][m["name"]], samples["change"][m["name"]])
        regressions += regressed
        print(row)
    if incorrect:
        print(f"{incorrect} launch(es) reported incorrect outcomes")
    return 1 if regressions or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
