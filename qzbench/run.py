#!/usr/bin/env python3
"""Build and run the qzbench benchmark from the root of a checkout.

    python3 qzbench/run.py --workload short_align --seed 1 --seconds 40 \
        --trace 0

The first run configures and builds qzbench (Release, the repository's
libraries compiled from ./src) under .bench_build/; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. Everything the benchmark
writes stays under .bench_build/ in the checkout.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "qzbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "qzbench"
BINARY = BUILD_DIR / "qzbench"
RUN_TIMEOUT_S = 170  # a run must end within 180 s, set-up included


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def commit():
    """HEAD, when ROOT itself is the top of a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "qzbench"):
        for path in sorted(p for p in (ROOT / top).rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv):
    if not build():
        log("build failed")
        return 2
    work_dir = OUT_DIR / f"run-{os.getpid()}"
    cmd = [str(BINARY), *argv, "--work-dir", str(work_dir),
           "--commit", commit(), "--source-digest", source_digest(),
           "--command-line", " ".join(["python3", *sys.argv])]
    # Its own process group, so a timeout can stop the benchmark and
    # its serve workers together. It reads ./BENCHMARK.json.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        code = 3
    shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
