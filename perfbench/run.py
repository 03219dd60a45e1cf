#!/usr/bin/env python3
"""End-to-end benchmark of the InjectaBLE simulator.

Run from the repository root:

    python3 perfbench/run.py --workload far_race --seed 7 --seconds 10 --trace 0

Builds perfbench/ (and the simulator libraries from src/) into .bench_build,
then runs one workload for --seconds.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it makes the traced run
and reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}.  See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "injectable_perfbench")
# setup_s is the fastest of this many set-up-only launches, half before and
# half after the measured launch, and the measured launch itself.
SETUP_LAUNCHES = 6
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"{' '.join(cmd)} failed: {err}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are missing next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        run_quiet(["cmake", "--build", BUILD, "--target", "injectable_perfbench", "-j", "4"])


def launch(args, cpu=None):
    """Runs the binary once, on `cpu` if given; returns (report lines, parsed result)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, preexec_fn=pin)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark binary failed: {err}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    report, result = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            report.append(line)
    if result is None:
        fail("benchmark binary printed no result")
    return report, result


def machine_context():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    describe = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                              capture_output=True, text=True)
        describe = proc.stdout.strip() or describe
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_describe": describe}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    common = ["--workload", args.workload, "--seed", str(args.seed % 2**64),
              "--seconds", str(args.seconds)]
    context = machine_context()
    if args.trace:
        spans = os.path.join(BUILD, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        report, result = launch(common + ["--mode", "trace", "--spans-out", spans])
        context["spans"] = os.path.relpath(spans, ROOT)
    else:
        # The set-up-only launches rotate over the allowed CPUs, as the
        # binary's timed passes do, so the fastest one ran on an unloaded vCPU.
        cpus = sorted(os.sched_getaffinity(0))

        def setup_only(i):
            launched = launch(common + ["--mode", "setup"], cpus[i % len(cpus)])
            return launched[1]["metrics"]["setup_s"]

        half = SETUP_LAUNCHES // 2
        setups = [setup_only(i) for i in range(half)]
        report, result = launch(common + ["--mode", "measure"])
        setups.append(result["metrics"]["setup_s"])
        setups += [setup_only(i) for i in range(half, SETUP_LAUNCHES)]
        result["metrics"]["setup_s"] = min(setups)
        context["setup_s_samples"] = setups
    context.update(result.get("detail", {}))

    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        if value is None:
            fail(f"metric {metric['name']} missing from the run")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for line in report:
        print(line)
    print("context " + json.dumps(context))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
