#!/usr/bin/env python3
"""Build and run the fedra end-to-end benchmark.

Run from the root of a fedra checkout:

    python3 bench_e2e/run.py --workload train_fig6 --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --selftest

The first call configures and builds bench_e2e/ (which compiles the
library sources under src/) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build, relative to the checkout root. Later calls
only re-run the incremental build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit status is
the benchmark's: 0 when every output check passed. A run of a workload
that BENCHMARK.json lists also fails (status 4) when its result line does
not carry exactly the metrics and units the manifest declares for it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
SELFTEST_TIMEOUT_S = 600


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def configured_for_this_checkout(path):
    """True when `path` holds a CMake cache configured from this bench_e2e/."""
    cache = os.path.join(path, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build(targets):
    """Configures once, then builds `targets`; returns True on success."""
    path = build_dir()
    if not configured_for_this_checkout(path) and os.path.isdir(path):
        shutil.rmtree(path)
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(path, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    run = dict(stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    if not configured_for_this_checkout(path):
        cmd = ["cmake", "-S", HERE, "-B", path, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **run).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", path, "-j", jobs]
    for t in targets:
        cmd += ["--target", t]
    return subprocess.run(cmd, **run).returncode == 0


def manifest_mismatch(workload, trace, result_line):
    """What the result line lacks or adds against BENCHMARK.json's metrics
    for this run, or None when it matches or the workload is not listed."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    if workload not in [w["name"] for w in manifest["workloads"]]:
        return None
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result object"
    if got == want:
        return None
    missing = sorted(k for k in want if got.get(k) != want[k])
    extra = sorted(k for k in got if k not in want)
    return "missing or wrong unit: %s; not in the manifest: %s" % (missing, extra)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no fedra sources (src/CMakeLists.txt) next to bench_e2e/",
              file=sys.stderr)
        return 2
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    target = "bench_e2e_selftest" if args.selftest else "bench_e2e"
    try:
        if not build([target]):
            print("run.py: build failed", file=sys.stderr)
            return 2
        binary = os.path.join(build_dir(), target)
        if args.selftest:
            return subprocess.run([binary], timeout=SELFTEST_TIMEOUT_S).returncode
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             universal_newlines=True)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        if run.returncode != 0:
            return run.returncode
        lines = run.stdout.splitlines()
        mismatch = manifest_mismatch(args.workload, args.trace,
                                     lines[-1] if lines else "")
        if mismatch:
            print("run.py: result does not match BENCHMARK.json: " + mismatch,
                  file=sys.stderr)
            return 4
        return 0
    except subprocess.TimeoutExpired as e:
        print("run.py: timed out: %s" % " ".join(map(str, e.cmd)), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
