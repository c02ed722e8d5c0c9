#!/usr/bin/env python3
"""Build the chasebench binary from source and run one workload.

    python3 chasebench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
`.bench_build/` (CMake, Release); later calls only rebuild what changed.
Build output goes to stderr. The binary's report goes to stdout, and the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`. The full record
(run metadata and every metric) is written to `.bench_out/`, and a traced
run also writes its trace-event JSON there.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "chasebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"chasebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "chasebench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    # A SIGTERM to this script must not orphan the build or the binary: turn
    # it into an exit, so subprocess.run and the `with` block below kill
    # and reap the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if proc.returncode != 0 or len(results) != 1:
        sys.stdout.write(stdout)
        fail(f"chasebench exited with {proc.returncode}")
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    record = json.loads(results[0][len("RESULT "):])
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    missing = [name for name in wanted if name not in record["metrics"]]
    if missing:
        fail(f"chasebench did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in wanted},
    }))


if __name__ == "__main__":
    main()
