#!/usr/bin/env python3
"""Smoke test of the udsim benchmark. Run from the repository root:

    python3 perfbench/smoke_test.py

Runs tiny versions of all three workloads through perfbench/run.py and checks
that:
  * every metric BENCHMARK.json names is printed, with its unit, in the mode
    it belongs to (end-to-end untraced, per-layer traced), and nothing else;
  * every operation passes its output check (exit 0, failed == 0);
  * the exact counts (compile.ops.*, exec.*.ops_per_vector.*, native.c_kb.*)
    repeat exactly across two traced runs with the same seed;
  * a deliberately corrupted output row or service response is counted as a
    failed operation and makes the command exit nonzero.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["stream", "build", "serve"]
EXACT = re.compile(r"^(compile\.ops\.|exec\.[a-z]+\.ops_per_vector\.|native\.c_kb\.)")
SEED = 7

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL:", what, flush=True)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(r.stderr[-2000:])
    return r.returncode, result


def check_metrics(workload, result, expected, mode):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}/{mode}: result keys {sorted(result)}")
    got = result["metrics"]
    check(set(got) == set(expected),
          f"{workload}/{mode}: metric names differ: missing "
          f"{sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        check(m.get("unit") == unit, f"{workload}/{mode}: {name} unit {m.get('unit')} != {unit}")
        check(isinstance(m.get("value"), (int, float)), f"{workload}/{mode}: {name} not a number")
    if mode == "end_to_end":
        for name in expected:
            check(got.get(name, {}).get("value", 0) > 0, f"{workload}: {name} is not positive")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([w["name"] for w in bench["workloads"]] == WORKLOADS,
          "BENCHMARK.json workloads are not " + ", ".join(WORKLOADS))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        rc, res = run(w, 0)
        check(res is not None, f"{w}: no JSON result")
        if res is None:
            continue
        check(rc == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{w}: untraced run rc={rc} attempted={res['attempted']} failed={res['failed']}")
        check_metrics(w, res, e2e, "end_to_end")

        traced = []
        for _ in range(2):
            rc, res = run(w, 1)
            check(res is not None and rc == 0 and res["failed"] == 0,
                  f"{w}: traced run failed (rc={rc})")
            if res is not None:
                check_metrics(w, res, layers, "per_layer")
                traced.append(res["metrics"])
        if len(traced) == 2:
            exact = [n for n in traced[0] if EXACT.match(n) and traced[0][n]["value"] != 0]
            for n in exact:
                check(traced[0][n]["value"] == traced[1][n]["value"],
                      f"{w}: exact count {n} differs across runs: "
                      f"{traced[0][n]['value']} vs {traced[1][n]['value']}")
            check(w == "serve" or exact, f"{w}: no exact counts reported")

        rc, res = run(w, 0, "--corrupt")
        check(res is not None and rc != 0 and not res["correct"] and res["failed"] == 1,
              f"{w}: corrupted output not counted (rc={rc}, result={res})")
        if res is not None:
            check(res["attempted"] >= 1, f"{w}: corrupted run attempted nothing")

    # A native build that silently falls back to the IR engines ran the wrong
    # engine: counted as failed (build's traced run, native phase). Run
    # udbench directly, so that the compiler override reaches it (run.py pins
    # the toolchain).
    exe = os.path.join(ROOT, ".bench_build", "perfbench", "udbench")
    env = dict(os.environ, UDSIM_CC="udbench-no-such-compiler",
               TMPDIR=os.path.join(ROOT, ".bench_build"))
    r = subprocess.run([exe, "--workload", "build", "--seed", str(SEED), "--seconds", "1",
                        "--trace", "1", "--tiny", "--out-dir", os.path.join(ROOT, ".bench_build")],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    check(r.returncode != 0 and res is not None and res["failed"] >= 1,
          f"native fallback not counted as failed (rc={r.returncode}, result={res})")

    print("smoke test:", "FAILED" if failures else "passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
