#!/usr/bin/env python3
"""The benchmark's own tests, at small sizes (about a minute).

    python3 qzbench/selftest.py

Runs every workload on the default seed twice and on one held-out seed,
untraced, plus one traced run, all with --small, and checks that:
  - every run exits 0 and reports correct results;
  - every end-to-end metric of BENCHMARK.json is printed, with its unit,
    by every untraced run, and every per-layer metric by every traced
    run;
  - the simulated metrics repeat exactly per seed and differ between
    the two seeds;
  - a directory holding only BENCHMARK.json and qzbench/ makes run.py
    fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", str(ROOT / "qzbench" / "run.py")]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SIMULATED = ["sim_cycles_per_pair", "qzc_speedup_vs_vec",
             "speedup_err_vs_paper"]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(out.returncode == 0 and result.get("correct") is True
           and result.get("failed") == 0 and result.get("attempted", 0) > 0,
           f"{workload} seed={seed} trace={trace}: exit 0, correct")
    return result.get("metrics", {})


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = {}
    for wl in manifest["workloads"]:
        name = wl["name"]
        first[name] = run(name, DEFAULT_SEED, 0)
        again = run(name, DEFAULT_SEED, 0)
        held_out = run(name, HELD_OUT_SEED, 0)
        for m in manifest["end_to_end"]:
            got = first[name].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{name}: prints {m['name']} in {m['unit']}")
        for key in SIMULATED:
            a = first[name].get(key, {}).get("value")
            expect(a is not None and a == again.get(key, {}).get("value"),
                   f"{name}: {key} repeats exactly on seed {DEFAULT_SEED}")
            expect(a != held_out.get(key, {}).get("value"),
                   f"{name}: {key} differs on seed {HELD_OUT_SEED}")
        traced = run(name, DEFAULT_SEED, 1)
        for m in manifest["per_layer"]:
            got = traced.get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{name} traced: prints {m['name']} in {m['unit']}")
        expect(set(traced) == {m["name"] for m in manifest["per_layer"]},
               f"{name} traced: prints only per-layer metrics")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "qzbench", bare / "qzbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(["python3", "qzbench/run.py", "--workload",
                          "short_align", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    expect(out.returncode != 0 and '"correct"' not in out.stdout,
           "without the repository's sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
