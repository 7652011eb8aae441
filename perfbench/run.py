#!/usr/bin/env python3
"""Entry point of the udsim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream|build|serve \
        --seed N --seconds S --trace 0|1

Builds the library and the udbench program from source into .bench_build/
(incremental after the first run), runs one workload in its own process and
passes its output through: the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 only when the build succeeded and every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
RUN_TIMEOUT_S = 170
# Library settings read from the environment that would change what is
# measured: lane width, C compiler and flags, native object cache.
PINNED_ENV = ("UDSIM_FORCE_WIDTH", "UDSIM_CC", "UDSIM_CC_FLAGS", "UDSIM_NATIVE_CACHE")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure and build (both incremental); returns the udbench path or None."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed:", " ".join(cmd))
            return None
    exe = os.path.join(BUILD_DIR, "udbench")
    return exe if os.path.exists(exe) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["stream", "build", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small circuits and streams (smoke test)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one output bit to exercise the output check")
    a = p.parse_args()

    exe = build()
    if exe is None:
        return 1

    tmp = os.path.join(WORK_DIR, "tmp")
    out = os.path.join(WORK_DIR, "out")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    # Native builds, cc's own temporaries and the service event log all go
    # under the checkout.
    env["TMPDIR"] = tmp
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace), "--out-dir", out]
    if a.tiny:
        cmd.append("--tiny")
    if a.corrupt:
        cmd.append("--corrupt")
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload", a.workload, "exceeded", RUN_TIMEOUT_S, "s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
