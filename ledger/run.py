#!/usr/bin/env python3
"""Build and run the sysrle ledger benchmark.

    python3 ledger/run.py --workload fig5_rows|serve_fresh|serve_hot \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the sysrle libraries
(RelWithDebInfo, the repository default; tests, benches and examples off), installs
them under .bench_build/, and builds the ledger package against that
install; later runs only re-check the build.  Build output goes to
.bench_build/build.log, and stdout carries the benchmark's report line
followed by its result line.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"


def fail(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout=None, **kw):
    """Runs cmd in its own process group and waits for it; on any exit path
    (timeout, SIGTERM, error) the whole group is killed and reaped, so no
    compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    if run_group(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
        log.close()
        with open(os.path.join(BUILD, "build.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from the repository root (CMakeLists.txt and src/ not found)")
    os.makedirs(BUILD, exist_ok=True)
    prefix = os.path.join(BUILD, "prefix")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        lib = os.path.join(BUILD, "sysrle")
        if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
            run_logged(
                [
                    "cmake", "-S", ROOT, "-B", lib,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DSYSRLE_BUILD_TESTS=OFF",
                    "-DSYSRLE_BUILD_BENCH=OFF",
                    "-DSYSRLE_BUILD_EXAMPLES=OFF",
                    "-DCMAKE_INSTALL_PREFIX=" + prefix,
                ],
                log,
            )
        run_logged(["cmake", "--build", lib, "-j", jobs], log)
        run_logged(["cmake", "--install", lib], log)
        bench = os.path.join(BUILD, "ledger")
        if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
            run_logged(
                [
                    "cmake", "-S", LEDGER_DIR, "-B", bench,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DSYSRLE_PREFIX=" + prefix,
                ],
                log,
            )
        run_logged(["cmake", "--build", bench, "-j", jobs], log)
    return os.path.join(BUILD, "ledger", "sysrle_ledger")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    # SIGTERM unwinds like Ctrl-C, so every child group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    try:
        rc = run_group(
            [
                binary,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", args.trace,
                "--work-dir", work,
            ],
            timeout=170,
        )
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 170 s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
