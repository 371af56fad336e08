#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark.

Run from anywhere: python3 perfbench/selftest.py [--all]

Runs the benchmark command from BENCHMARK.json at the repository root and
checks that:
  * every emitted metric name matches [A-Za-z0-9_.-]+ and has a unit;
  * each run emits exactly the metrics BENCHMARK.json declares
    (end_to_end untraced, per_layer traced) and reports correct output;
  * the same seed repeats the simulated metrics and another seed moves
    them;
  * the committed results/ tree is unchanged afterwards.

serve_live alone is exercised by default (about a minute); --all covers
every workload (several minutes). Exits 1 on the first failed check.
"""

import hashlib
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SIMULATED = ("energy_norm_pct", "energy_uj_per_job", "slo_met_pct")


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run(command, workload, seed, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        if not NAME.fullmatch(name):
            fail(f"illegal metric name {name!r}")
        if set(metric) != {"value", "unit"} or not metric["unit"]:
            fail(f"metric {name} lacks a unit: {metric}")
    return result["metrics"]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    declared = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    if "--all" not in sys.argv[1:]:
        workloads = ["serve_live"]
    before = tree_digest(ROOT / "results")

    for workload in workloads:
        for trace in (0, 1):
            emitted = set(run(command, workload, 1, trace))
            if emitted != declared[trace]:
                fail(f"{workload} trace {trace}: missing {sorted(declared[trace] - emitted)}, "
                     f"undeclared {sorted(emitted - declared[trace])}")
        print(f"ok: {workload} emits every declared metric")

    first = run(command, "serve_live", 1, 0)
    again = run(command, "serve_live", 1, 0)
    other = run(command, "serve_live", 2, 0)
    same = all(first[k]["value"] == again[k]["value"] for k in SIMULATED)
    moved = any(first[k]["value"] != other[k]["value"] for k in SIMULATED)
    if not same:
        fail("the same seed gave different simulated metrics")
    if not moved:
        fail("seeds 1 and 2 gave identical simulated metrics: the seed does not reach the inputs")
    print("ok: the seed reaches the inputs, and a seed repeats its simulated metrics")

    if tree_digest(ROOT / "results") != before:
        fail("the results/ tree changed")
    print("ok: results/ is unchanged")


if __name__ == "__main__":
    main()
