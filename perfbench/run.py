#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the
library sources under src/ plus the benchmark program) in Release mode
under $CARGO_TARGET_DIR, default .bench_build; later calls only run the
incremental build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The result's metric names are
checked against BENCHMARK.json. Exits non-zero, without a result line,
when the sources are missing, the build fails, the benchmark fails an
output check, or a run overruns its time limit.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take 180 s; leave headroom for the interpreter and build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries inside
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail(f"build step {' '.join(step[:3])} exited "
                 f"{done.returncode}")
    return out


def source_digest():
    """SHA-256 over the benchmarked sources, for the output header."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.decode().strip()
    return sha if done.returncode == 0 and sha else "unknown (no git checkout)"


def expected_metrics(workload, trace):
    """Metric names BENCHMARK.json requires of this run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(argv):
    out = build(["perfbench"])
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    try:
        done = subprocess.run([os.path.join(out, "perfbench")] + argv,
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"benchmark exited {done.returncode}")
    result = json.loads(lines[-1])
    args = dict(zip(argv[0::2], argv[1::2]))
    expected = expected_metrics(args.get("--workload"),
                                args.get("--trace") == "1")
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        sys.stderr.write("\n".join(lines) + "\n")
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(expected) ^ set(result['metrics']))}")
    sys.stdout.write("\n".join(lines) + "\n")


def main():
    argv = sys.argv[1:]
    if argv == ["--selftest"]:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    run(argv)


if __name__ == "__main__":
    main()
