#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload meu_books --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake package that
compiles the veritas libraries from ../src plus one driver) into
$CARGO_TARGET_DIR, default .bench_build. Later calls rebuild incrementally.
The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are BENCHMARK.json's
end_to_end set, with --trace 1 its per_layer set. The line before it lists
sample counts and the selection digest. See perfbench/BENCH.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_approx", "meu_books", "stream_approx"]
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench_driver; returns its path.

    Returns None when the build fails.
    """
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(open(log_path).read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed object or None)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: driver printed no result\n")
        return proc.returncode or 1, None


def metric_set(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(spec, trace, obj):
    """The contract line, plus the problems found checking it."""
    problems = list(obj.get("errors", []))
    metrics = {}
    for m in metric_set(spec, trace):
        got = obj["metrics"].get(m["name"])
        if got is None:
            if not trace:
                problems.append("missing metric " + m["name"])
                continue
            # A layer this workload never enters reads 0.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append("unit of %s is %s, not %s" %
                            (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    line = {"correct": not problems, "attempted": obj["attempted"],
            "failed": obj["failed"], "metrics": metrics}
    return line, problems


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(args):
    spec = load_spec()
    driver = build()
    if driver is None:
        return 1
    rc, obj = run_driver(driver, args.workload, args.seed, args.seconds,
                         args.trace)
    if obj is None:
        return 1
    line, problems = result_line(spec, args.trace, obj)
    samples = {k: v["samples"] for k, v in obj["metrics"].items()
               if v.get("samples")}
    print("# %s seed=%d digest=%s samples=%s" %
          (args.workload, args.seed, obj.get("digest"), json.dumps(samples)))
    for p in problems:
        print("# problem: " + p)
    print(json.dumps(line))
    return 0 if rc == 0 and not problems else 1


def self_test():
    """Small-scale check of the benchmark itself, every workload."""
    spec = load_spec()
    driver = build()
    if driver is None:
        return 1
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, obj = run_driver(driver, w, 7, 1, trace, ["--small"])
            if obj is None:
                check(False, "%s trace=%d printed a result" % (w, trace))
                continue
            line, problems = result_line(spec, trace, obj)
            check(rc == 0 and not problems,
                  "%s trace=%d: correct, every metric named with its unit %s"
                  % (w, trace, problems[:3] if problems else ""))
            if trace:
                path = obj.get("notes", {}).get("chrome_trace", "")
                try:
                    with open(os.path.join(ROOT, path)) as f:
                        names = {e["name"] for e in json.load(f)["traceEvents"]}
                    spans_ok = "session.run" in names and any(
                        n.startswith("bench.") for n in names)
                except (OSError, ValueError, KeyError):
                    spans_ok = False
                check(spans_ok, "%s chrome trace parses with program and "
                      "bench spans" % w)
        rc, obj = run_driver(driver, w, 7, 1, 0, ["--small", "--force-mismatch"])
        tripped = obj is not None and rc != 0 and not obj["correct"] and any(
            "select" in e for e in obj["errors"])
        check(tripped, "%s correctness gate trips on a forced digest mismatch"
              % w)
    print("self-test: %s" % ("FAILED %d" % len(failures) if failures
                             else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
