#!/usr/bin/env python3
"""Repository benchmark: build the focv libraries and the benchmark binary, run one
workload, print every metric by name and unit, and end with one JSON line.

    python3 perfbench/run.py --workload fleet_soa --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only re-check
the build. A traced run (--trace 1) reports only the layers its workload
exercises; the rest of BENCHMARK.json's per_layer list is filled in as 0,
in that list's order. The exit code is non-zero when the build fails, an
output check fails or the result line does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark target; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full repository checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "focv_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "focv_perfbench")


def complete_result(line, trace):
    """Check the result line against BENCHMARK.json's metrics for the mode;
    for a traced run add the layers the workload does not exercise as 0.
    Returns the result line and the names filled in."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        want = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys")
    have = result["metrics"]
    names = [m["name"] for m in want]
    missing = [n for n in names if n not in have]
    extra = sorted(set(have) - set(names))
    if extra or (missing and not trace):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    result["metrics"] = {m["name"]: have.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in want}
    return json.dumps(result), missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_soa", "fleet_mixed", "serve_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        sys.stdout.flush()
        fail("workload exited with code %d" % proc.returncode)
    line, filled = complete_result(lines[-1], args.trace == 1)
    units = {m: v["unit"] for m, v in json.loads(line)["metrics"].items()}
    lines[-1:] = ["metric %-34s = 0 %s" % (m, units[m]) for m in filled] + [line]
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
