#!/usr/bin/env python3
"""Builds the gchase benchmark from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check

The first form configures and builds perfbench/ (and with it the library
under src/) into .bench_build/, then runs the workload. Build output goes
to stderr; the benchmark's stdout is passed through, so its last line is
the JSON result. --self-check runs every workload briefly with one
expected value corrupted and fails unless each run counts a failed
operation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("materialize-closure", "materialize-bulk", "decide-corpus")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out / "perfbench"


def source_id():
    """The git commit when there is one, and a digest of the library
    sources, which identifies the build also outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
        if commit:
            ident = "git:" + commit[:12] + " " + ident
    return ident


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-dir", str(BENCH_DIR), "--source-id", source_id(), *extra]
    # A run measures for `seconds` and then finishes its last pass; the
    # timeout only guards against a hang.
    return subprocess.run(cmd, timeout=float(seconds) + 150,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def self_check(binary):
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            extra = ["--corrupt-expectation"] if corrupt else []
            proc = run(binary, workload, 1, 1, 0, extra, capture=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counted = result["failed"] >= 1 and not result["correct"]
            passed = counted if corrupt else result["failed"] == 0
            ok = ok and proc.returncode == 0 and passed
            print("%-20s %-9s failed=%d/%d %s" % (
                workload, "corrupt" if corrupt else "intact", result["failed"],
                result["attempted"], "ok" if passed else "WRONG"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.self_check:
        return self_check(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
