"""Toy-size self-test of the benchmark harness (S_5 and a 50-query mix).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every output check passes, that traced counts repeat exactly between
two runs, that the query generator is a function of its seed, and that the
benchmark refuses to run without the package sources.  Exit code 0 when
all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from queries import make_queries

TOY = {
    "verify-s5": {"kind": "verify", "n": 5, "jobs": 1},
    "verify-s5-jobs2": {"kind": "verify", "n": 5, "jobs": 2},
    "oracle-s5": {"kind": "oracle", "n": 5},
    "query-mix-toy": {
        "kind": "query-mix", "topics": 2, "pool": 15, "queries": 25, "sizes": (5, 6)
    },
}


def check_declared(bench: dict) -> list[str]:
    problems = []
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared["end_to_end"] != run.END_TO_END_UNITS:
        problems.append("end_to_end names or units differ from run.END_TO_END_UNITS")
    if declared["per_layer"] != run.PER_LAYER_UNITS:
        problems.append("per_layer names or units differ from run.PER_LAYER_UNITS")
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    return problems


def check_result(label: str, result: dict, units: dict, positive: bool) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: not correct: {result['errors'][:3]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: emitted metrics or units differ from BENCHMARK.json")
    if positive:
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            problems.append(f"{label}: end-to-end metrics not positive: {zero}")
    return problems


def check_toys() -> list[str]:
    problems = []
    for name, spec in TOY.items():
        spec = {"name": name, **spec}
        plain = run.run(spec, seed=1, seconds=0.1, trace=False)
        problems += check_result(name, plain, run.END_TO_END_UNITS, positive=True)
        first = run.run(spec, seed=1, seconds=0.1, trace=True)
        second = run.run(spec, seed=1, seconds=0.1, trace=True)
        for label, result in (("traced", first), ("traced again", second)):
            problems += check_result(f"{name} {label}", result, run.PER_LAYER_UNITS, False)
        for count in run.EXACT_COUNTS:
            a, b = first["metrics"][count]["value"], second["metrics"][count]["value"]
            if a != b:
                problems.append(f"{name}: {count} is {a} in one traced run, {b} in another")
        if spec["kind"] == "verify" and not first["metrics"]["correspondence.chunks"]["value"]:
            problems.append(f"{name}: no progress chunks seen")
    return problems


def check_generator() -> list[str]:
    problems = []
    if make_queries(1) != make_queries(1):
        problems.append("one seed gave two different query lists")
    if make_queries(1) == make_queries(2):
        problems.append("two seeds gave the same query list")
    if make_queries(1, session=0) == make_queries(1, session=1):
        problems.append("two sessions of one seed gave the same query list")
    return problems


def check_refuses_bare_copy() -> list[str]:
    """Without src/ the benchmark must fail fast and print no result."""
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-s7",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("the benchmark exited 0 without the package sources")
    if proc.stdout.strip():
        problems.append("the benchmark printed a result without the package sources")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_declared(bench) + check_generator() + check_refuses_bare_copy()
    problems += check_toys()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
