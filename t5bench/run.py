#!/usr/bin/env python3
"""Table 5 use-case benchmark: build, run one workload, check, report.

Usage, from the repository root:

    python3 t5bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: warm_usecases, cold_open, serve_mix, ingest_publish (see
METRICS.md for what each stresses; BENCHMARK.json lists all but cold_open).

The first run configures and builds the benchmark package (t5bench/
CMakeLists.txt, which compiles the repository's src/ tree) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
reuse the build. Each run writes its snapshots to a private directory
under the build directory and removes it when done.

Output: a stamp line ({"stamp": {...}}: host class, build type, scale,
seeds, tail percentile, operation counts) and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). The exit code is 0 only when every operation passed its
oracle; 1 when an answer was wrong or the output did not match
BENCHMARK.json; 2 when the benchmark could not be built or run.

The oracle self-test (tests/oracle_test.cc) builds alongside; run it with
`ctest --test-dir <build dir>/t5bench`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("t5bench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                # Configured from another tree: start over.
                shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); log in %s" % (" ".join(step[:2]),
                                                       log_path))
    return os.path.join(build_dir, "t5bench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(os.path.join(build_root, "t5bench"))
    workdir = os.path.join(build_root, "t5bench_runs", str(os.getpid()))
    spans = os.path.join(build_root, "t5bench_spans",
                         "%s-%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--spans", spans]
    env = dict(os.environ, FRAPPE_LOG_LEVEL="error")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
             % (missing, extra), code=1)
    print(lines[-2])
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
