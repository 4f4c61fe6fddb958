#!/usr/bin/env python3
"""Build and run the GFSL benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
gfsl_perfbench.  Build output goes to stderr; the program's last stdout line
is the result JSON.  With --trace 1 the spans are written to
<build dir>/traces/<workload>.json unless --trace-out is given.  Exits
nonzero without a result when the build fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir: Path) -> Path:
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(bdir), "-j", jobs,
             "--target", "gfsl_perfbench"],
        ):
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    return bdir / "gfsl_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args, extra = ap.parse_known_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = Path(args.trace_out) if args.trace_out else (
            bdir / "traces" / f"{args.workload}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out)]
    cmd += extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
