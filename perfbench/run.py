#!/usr/bin/env python3
"""Repository benchmark: one command for the end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds the benchmark package in
perfbench/ (which compiles the program from src/) into .bench_build/perfbench,
runs the benchmark's self-tests, then runs one workload for S seconds and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones.

Workloads: paper8-closed, open512-churn, fleet16-slo (see BENCHMARK.json and
perfbench/LAYERS.md).  With the default seed the run's outcome digest must
also match perfbench/golden_digests.json.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("paper8-closed", "open512-churn", "fleet16-slo")
DEFAULT_SEED = 20240521
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir: pathlib.Path) -> None:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(step)}", 2)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})", 2)


def expected_metrics(trace: bool) -> list:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build_dir = pathlib.Path(".bench_build") / "perfbench"
    build(build_dir)

    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        print(selftest.stderr, file=sys.stderr)
        fail("self-tests failed", 3)

    spans = build_dir / f"spans-{args.workload}-{args.seed}.csv"
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        fail(f"{args.workload} exited with code {done.returncode}", 4)

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing", 4)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    names = list(result["metrics"])
    if names != expected_metrics(bool(args.trace)):
        fail(f"metric names differ from BENCHMARK.json: {names}", 5)

    digest = result.pop("digest")
    print(f"digest {args.workload} seed {args.seed}: {digest}")
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden_digests.json").read_text())
        if golden.get(args.workload) != digest:
            print(f"CHECK FAILED: digest {digest} differs from the golden "
                  f"{golden.get(args.workload)}")
            result["correct"] = False
            result["failed"] = result["attempted"]

    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
