#!/usr/bin/env python3
"""Build and run the pgas-nb benchmark for one workload.

Run from the root of a pgas-nb checkout:

    python3 perfbench/run.py --workload kv-read-zipf --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload BENCHMARK.json lists, one after the
other, and ends with one JSON object holding each workload's metrics, units
and sample counts.

The first run configures and builds `pgasnb_perfbench` (Release) under
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is always the benchmark's result
object. `--trace 1` also writes the first traced trial's spans to
.bench_build/traces/<workload>.json (Chrome trace-event format; open it in
Perfetto or chrome://tracing).

The script checks the result against BENCHMARK.json: every metric the
workload reports must be listed there, and every listed metric reported.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
TRACE_DIR = Path(".bench_build") / "traces"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (Path("CMakeLists.txt").is_file() and Path("src/pgasnb.hpp").is_file()):
        fail("run from the root of a pgas-nb checkout (CMakeLists.txt and "
             "src/pgasnb.hpp not found)")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "pgasnb_perfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "pgasnb_perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}", 1)
    if not result["correct"]:
        return
    got = set(result["metrics"])
    want = expected_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"unlisted {sorted(got - want)}", 1)


def run_workload(binary, workload, args):
    """Runs one workload, echoes its output, and returns its detail object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(TRACE_DIR / f"{workload}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(run.returncode or 1)
    check_result(lines[-1], args.trace)
    detail = next(l for l in lines if l.startswith("detail: "))
    return json.loads(detail[len("detail: "):])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        run_workload(binary, args.workload, args)
        return
    spec = json.loads(Path("BENCHMARK.json").read_text())
    summary = {w["name"]: run_workload(binary, w["name"], args)["metrics"]
               for w in spec["workloads"]}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
