#!/usr/bin/env python3
"""Self-test of the GFSL benchmark.

    python3 perfbench/selftest.py

Run from the repository root; builds through perfbench/run.py.  Checks that:
  * BENCHMARK.json lists exactly the program's metric catalogue (names,
    units, directions) and README.md documents every metric and workload;
  * every workload, run at tiny scale with --trace 0 and --trace 1, passes
    its correctness checks and emits every named metric, finite, with its
    unit;
  * a run whose result vector is corrupted fails: nonzero exit, "correct":
    false;
  * contains_10k's simulated-statistics fingerprint repeats for one seed.
Exits nonzero on the first failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace=0, seed=7, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace),
           "--scale", "tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout, p.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--list-metrics"], cwd=ROOT, capture_output=True, text=True,
        timeout=900)
    if exe.returncode != 0:
        fail(f"--list-metrics failed:\n{exe.stderr[-2000:]}")
    cat = json.loads(exe.stdout.strip().splitlines()[-1])
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: (m["unit"], m["better"]) for m in cat[kind]}
        have = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        if want != have:
            fail(f"BENCHMARK.json {kind} differs from the program's catalogue: "
                 f"{sorted(set(want.items()) ^ set(have.items()))}")
    readme = (HERE / "README.md").read_text()
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in cat[k]]
    names += [w["name"] for w in bench["workloads"]]
    missing = [n for n in names if f"`{n}`" not in readme]
    if missing:
        fail(f"README.md does not document {missing}")
    return bench, cat


def main():
    bench, cat = check_catalogue()
    print("catalogue: BENCHMARK.json and README.md match the program")
    units = {m["name"]: m["unit"] for k in cat for m in cat[k]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, out, err = run(w, trace)
            if code != 0 or res is None:
                fail(f"{w} --trace {trace}: exit {code}\n{out}\n{err[-2000:]}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{w} --trace {trace}: {res['attempted']} attempted, "
                     f"{res['failed']} failed")
            names = {m["name"] for m in cat[kind]}
            if set(res["metrics"]) != names:
                fail(f"{w} --trace {trace}: metrics differ: "
                     f"{sorted(set(res['metrics']) ^ names)}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    fail(f"{w}: {name} = {m['value']!r} is not finite")
                if m["unit"] != units[name]:
                    fail(f"{w}: {name} has unit {m['unit']!r}")
        code, res, out, err = run(w, 0, extra=["--corrupt-results"])
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            fail(f"{w}: a corrupted result vector was not caught "
                 f"(exit {code}, result {res})")
        print(f"{w}: metrics complete; corrupted results caught")

    prints = []
    for _ in range(2):
        code, _, out, err = run("contains_10k", 0, seed=11)
        line = [l for l in out.splitlines() if "fingerprint" in l]
        if code != 0 or len(line) != 1:
            fail(f"contains_10k: no fingerprint\n{out}\n{err[-2000:]}")
        prints.append(line[0].split()[-1])
    if prints[0] != prints[1]:
        fail(f"contains_10k fingerprint differs across runs: {prints}")
    print(f"contains_10k: fingerprint {prints[0]} repeats")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
