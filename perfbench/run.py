#!/usr/bin/env python3
"""Build the stellar-cup benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-live --seed 1 --seconds 10 --trace 0

Builds perfbench/e2e.exe, perfbench/calibrate.exe and the stellar-cup CLI
with dune (into
$CARGO_TARGET_DIR/dune, default .bench_build/dune), runs the workload in a
fresh process, checks that its result line carries exactly the metrics
BENCHMARK.json lists, and prints that line last. Exits non-zero, without
a result line, when the build, the run or the result check fails.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a stellar-cup checkout", 2)
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "perfbench/e2e.exe", "perfbench/calibrate.exe",
           "bin/stellar_cup_cli.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    out = os.path.join(build_dir, "default")
    return (os.path.join(out, "perfbench", "e2e.exe"),
            os.path.join(out, "perfbench", "calibrate.exe"),
            os.path.join(out, "bin", "stellar_cup_cli.exe"))


def stop_group(proc):
    """Kills whatever is left of the run's process group (a daemon or a
    calibrator that outlived a failed run) and waits, up to 10 s, for it
    to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_result(line, expected):
    """The result line must hold exactly the four keys and the listed metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result does not have exactly correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"metric {name} has no finite value"
        if m.get("unit") != unit:
            return f"metric {name} has unit {m.get('unit')!r}, not {unit!r}"
    return None


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "dune")
    exe, calibrator, cli = build(build_dir)

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--calibrator", calibrator, "--cli", cli, "--out-dir", ".bench_out",
           "--git-sha", source_id()]
    # A process group of its own, so a timeout also stops the daemon and
    # the calibrator.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc)
    if proc.returncode != 0:
        fail(f"the run failed with exit code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], expected)
    if problem:
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
