#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 10 --trace 0

Workloads: campaign, triage, store-cold, store-warm. The benchmark is a
Rust package of its own (perfbench/Cargo.toml) that depends on the
repository's crates by path; it is built in release mode, offline, into
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output
is the result: one JSON object with the keys correct, attempted, failed and
metrics. The line before it names the source tree that was measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("campaign", "triage", "store-cold", "store-warm")
# The first run in a checkout compiles the workspace; every run must end
# well within the time a run is allowed.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# Environment variables that change what the pipeline does.
PIPELINE_ENV = ("HOLES_THREADS", "HOLES_CACHE_DIR", "HOLES_STORE_CHAOS",
                "HOLES_FAULT_SEEDS", "HOLES_SERVE_CHAOS", "HOLES_CACHE_CHAOS")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    return args


def source_digest(root):
    """SHA-256 over the measured sources, so that a result names its code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml"]
    for tree in ("crates", "vendor", "perfbench/src"):
        files.extend(p for p in (root / tree).rglob("*") if p.is_file())
    files.extend([root / "perfbench/Cargo.toml", root / "perfbench/expected.json"])
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_bounded(command, timeout, **kwargs):
    """Run a command to completion, killing it (and waiting for it) if it
    outlives the timeout. Returns (exit status or None, stdout)."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          **kwargs) as process:
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            return None, ""
        return process.returncode, stdout


def main():
    args = parse_args()
    root = Path.cwd()
    manifest = root / "perfbench" / "Cargo.toml"
    for needed in (manifest, root / "Cargo.toml", root / "crates"):
        if not needed.exists():
            print(f"perfbench: `{needed.relative_to(root)}` is missing; "
                  "run from the root of a full checkout", file=sys.stderr)
            return 1

    env = {k: v for k, v in os.environ.items() if k not in PIPELINE_ENV}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build_start = time.monotonic()
    status, _ = run_bounded(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        BUILD_TIMEOUT_S, cwd=root, env=env, stderr=sys.stderr)
    if status != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    build_s = time.monotonic() - build_start
    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = root / binary
    binary = binary / "release" / "perfbench"

    status, stdout = run_bounded(
        [str(binary), "run",
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--expected", str(root / "perfbench" / "expected.json")],
        RUN_TIMEOUT_S, cwd=root, env=env, stderr=sys.stderr)
    if status is None:
        print(f"perfbench: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    source = {"commit": git_commit(root), "source_digest": source_digest(root),
              "build_s": round(build_s, 3)}
    print(json.dumps({"perfbench_source": source}))
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
