#!/usr/bin/env python3
"""Builds lrb_serve and lrb_bench from source and runs one workload.

Benchmark entry point (BENCHMARK.json at the repository root):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

It configures and builds bench/e2e (a CMake project that builds the
repository as a subproject) into $CARGO_TARGET_DIR/e2e, or .bench_build/e2e
when that is unset, runs lrb_bench on the one workload, keeps its JSON report
under reports/ in the build directory, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). All build and run output goes to stderr.

    python3 bench/e2e/run.py --smoke --bench PATH

is the e2e_smoke check: every workload for about a second on small pools,
traced, asserting that every metric BENCHMARK.json names is printed with
its unit and that no operation failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2e")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "lrb_bench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(step))
    return build_dir


def run_bench(bench, args, timeout):
    """Runs lrb_bench, echoing its output to stderr; returns its stdout.

    lrb_bench runs in a process group of its own, so a timeout also kills
    the lrb_serve it spawned; both are waited for before this returns."""
    proc = subprocess.Popen([bench] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("lrb_bench timed out")
    sys.stderr.write(stdout)
    return stdout


def read_report(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("no report from lrb_bench: %s" % e)


def contract(opts, spec):
    build_dir = build()
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, "%s-seed%d-trace%d" %
                        (opts.workload, opts.seed, opts.trace))
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--json", stem + ".json"]
    if opts.trace:
        args += ["--trace", stem + ".spans.tsv"]
    run_bench(os.path.join(build_dir, "lrb_bench"), args, 170)
    result = read_report(stem + ".json")["workloads"].get(opts.workload)
    if result is None:
        die("report lacks workload " + opts.workload)

    # lrb_bench also exits non-zero when the sender fell behind its schedule
    # or an operation failed; those are measurement facts, reported through
    # the notes and `failed`. `correct` is about the replies themselves.
    if not result["valid"]:
        print("run.py: run marked invalid: " + "; ".join(result["notes"]),
              file=sys.stderr)
    section = "per_layer" if opts.trace else "end_to_end"
    correct = (result["complete"] and result["server_exit_ok"] and
               result["mismatches"] == 0)
    metrics = {}
    for entry in spec[section]:
        got = result[section].get(entry["name"])
        if got is None or got["value"] is None or got["unit"] != entry["unit"]:
            print("run.py: metric %s missing or in the wrong unit" %
                  entry["name"], file=sys.stderr)
            correct = False
            continue
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    # Exit 0 whenever a result was printed: `correct` carries the verdict.
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def smoke(opts, spec):
    out_dir = os.path.dirname(os.path.abspath(opts.bench))
    report_path = os.path.join(out_dir, "e2e_smoke.json")
    stdout = run_bench(opts.bench, [
        "--smoke", "--json", report_path,
        "--trace", os.path.join(out_dir, "e2e_smoke.spans.tsv")], 280)
    report = read_report(report_path)
    printed = set()
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in ("e2e", "tail", "layer"):
            printed.add((fields[1], fields[3]))
    problems = []
    for name, result in report["workloads"].items():
        if result["failed"] != 0 or result["mismatches"] != 0:
            problems.append("%s: %d failed, %d mismatches" %
                            (name, result["failed"], result["mismatches"]))
        for section in ("end_to_end", "per_layer"):
            for entry in spec[section]:
                if (entry["name"], entry["unit"]) not in printed:
                    problems.append("%s: %s not printed in %s" %
                                    (name, entry["name"], entry["unit"]))
                if entry["name"] not in result[section]:
                    problems.append("%s: %s missing from the report" %
                                    (name, entry["name"]))
    if len(report["workloads"]) != len(spec["workloads"]):
        problems.append("expected %d workloads" % len(spec["workloads"]))
    for problem in problems:
        print("e2e_smoke: " + problem, file=sys.stderr)
    print("e2e_smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bench", help="lrb_bench binary (--smoke)")
    opts = parser.parse_args()
    spec = load_spec()
    if opts.smoke:
        if not opts.bench:
            die("--smoke needs --bench")
        return smoke(opts, spec)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown --workload %r" % opts.workload)
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    return contract(opts, spec)


if __name__ == "__main__":
    sys.exit(main())
