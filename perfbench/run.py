"""forestry benchmark: end-to-end and per-layer numbers for four workloads.

    python3 perfbench/run.py --workload verify-s7 --seed 1 --seconds 28 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; nothing is installed.  Every pass runs in a fresh
interpreter, so forestry's caches start empty, and passes repeat in a
closed loop with one client until ``--seconds`` is used up.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics, taken from spans the
benchmark records around its calls into forestry, and the tracing overhead.
Every output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 1 if
any check failed.  Only ``query-mix`` depends on ``--seed``; the exhaustive
workloads walk all of S_7 whatever the seed.  Full results and the span
files go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from queries import KIND_SHARES, SIZES, TOPIC_POOL, TOPIC_QUERIES, TOPICS, ZIPF_EXPONENT
from speed import reference_loop, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "verify-s7": {"kind": "verify", "n": 7, "jobs": 1},
    "verify-s7-jobs2": {"kind": "verify", "n": 7, "jobs": 2},
    "oracle-s7": {"kind": "oracle", "n": 7},
    "query-mix": {
        "kind": "query-mix",
        "topics": TOPICS,
        "pool": TOPIC_POOL,
        "queries": TOPIC_QUERIES,
        "sizes": SIZES,
    },
}

# (total, pattern-positive, expansion-positive, bad-pair checked); S_7 is the
# paper's exhaustive check, S_5 serves the toy-size self-test
VERIFY_COUNTS = ("total", "pattern_positive", "expansion_positive", "badpair_checked")
EXPECTED_VERIFY = {
    5: (120, 76, 76, 103),
    7: (5040, 978, 978, 2761),
}

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
QUERY_KINDS = tuple(kind for kind, _ in KIND_SHARES)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "permutations.avoids_forbidden.busy_s": "s",
        "permutations.avoids_forbidden.calls": "count",
        "permutations.pattern_positive_ratio": "ratio",
        "pipedreams.all_pipe_dreams.busy_s": "s",
        "pipedreams.dreams": "count",
        "pipedreams.dreams_per_s": "1/s",
        "pipedreams.schubert.busy_s": "s",
        "pipedreams.schubert.terms": "count",
        "pipedreams.schubert_divdiff.busy_s": "s",
        "pipedreams.divdiff_steps": "count",
        "forests.forest_from_code.busy_s": "s",
        "forests.valid_labelings.busy_s": "s",
        "forests.labelings": "count",
        "forests.forest_polynomial.busy_s": "s",
        "polynomials.eq.busy_s": "s",
        "polynomials.eq.calls": "count",
        "correspondence.find_bad_pair.busy_s": "s",
        "correspondence.find_bad_pair.calls": "count",
        "correspondence.bad_pair_found_ratio": "ratio",
        "correspondence.witness_moves": "count",
        "correspondence.chunks": "count",
        "correspondence.chunk_gap_p50_s": "s",
        "correspondence.chunk_gap_max_s": "s",
        "cli.overhead_s": "s",
        "query.samples": "count",
        "query.p50_ms": "ms",
        "query.p99_ms": "ms",
        "query.first_touch_p50_ms": "ms",
        "query.repeat_p50_ms": "ms",
        "query.repeat_ratio": "ratio",
    }
    for kind in QUERY_KINDS:
        units[f"query.{kind}.p50_ms"] = "ms"
        units[f"query.{kind}.p99_ms"] = "ms"
    units["trace_overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()

# counts that must repeat exactly between traced passes of the same input
EXACT_COUNTS = (
    "permutations.avoids_forbidden.calls",
    "pipedreams.dreams",
    "pipedreams.schubert.terms",
    "pipedreams.divdiff_steps",
    "forests.labelings",
    "polynomials.eq.calls",
    "correspondence.find_bad_pair.calls",
    "correspondence.witness_moves",
    "correspondence.chunks",
)


# -- child processes ---------------------------------------------------------


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: list[tuple[float, str]]  # (arrival time, line)
    wall_s: float
    cpu_s: float  # user + system, waited-for descendants included
    peak_rss_mb: float  # largest of the process and its descendants


def run_child(argv: list[str], env: dict) -> Child:
    """Run argv to completion from the repository root.  Resource use
    comes from wait4, so it covers the child and every worker it reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    lines: list[tuple[float, str]] = []

    def drain() -> None:
        for line in proc.stderr:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=drain)
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        stdout=out,
        stderr=lines,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _failed_child(c: Child, attempted: int, what: str) -> dict:
    tail = "".join(line for _, line in c.stderr[-3:]).strip()
    return {
        "attempted": attempted,
        "failed": attempted,
        "errors": [f"{what} exited {c.returncode}: {tail}"],
        "wall_s": c.wall_s,
        "cpu_s": c.cpu_s,
        "scale": 1.0,
        "peak_rss_mb": c.peak_rss_mb,
        "latencies_ms": [],
    }


def import_pass(env: dict) -> dict:
    """A fresh interpreter importing forestry.cli: the set-up a user pays."""
    c = run_child([sys.executable, "-c", "import forestry.cli"], env)
    failed = c.returncode != 0
    return {
        "attempted": 1,
        "failed": int(failed),
        "errors": ["importing forestry.cli failed"] if failed else [],
        "wall_s": c.wall_s,
    }


def verify_pass(n: int, jobs: int, env: dict) -> dict:
    """One ``forestry verify n --jobs J --json`` command, its output checked."""
    total = EXPECTED_VERIFY[n][0]
    argv = [sys.executable, "-m", "forestry.cli", "verify", str(n), "--jobs", str(jobs), "--json"]
    c = run_child(argv, env)
    if c.returncode != 0:
        return _failed_child(c, total, "verify")
    try:
        report = json.loads(c.stdout)
        got = tuple(report[k] for k in VERIFY_COUNTS)
        split = len(report["disagreements"]) + len(report["badpair_disagreements"])
        elapsed_s = report["elapsed_ms"] / 1000
    except (ValueError, KeyError, TypeError) as exc:
        return _failed_child(c, total, f"verify report unreadable ({exc!r}); verify")
    errors = []
    if got != EXPECTED_VERIFY[n]:
        errors.append(f"verify {n}: counts {got}, expected {EXPECTED_VERIFY[n]}")
    if split:
        errors.append(f"verify {n}: {split} disagreements")
    # progress fires after each chunk and the report is printed right after
    # the last one, so the run started elapsed_s before the last progress line
    marks = [t for t, line in c.stderr if line.startswith("checked ")]
    gaps = []
    if marks:
        edges = [marks[-1] - elapsed_s] + marks
        gaps = [b - a for a, b in zip(edges, edges[1:])]
    return {
        "attempted": total,
        "failed": total if errors else 0,
        "errors": errors,
        "wall_s": c.wall_s,
        "cpu_s": c.cpu_s,
        "peak_rss_mb": c.peak_rss_mb,
        "latencies_ms": [c.wall_s * 1000],
        "elapsed_s": elapsed_s,
        "chunk_gaps_s": gaps,
    }


def worker_pass(args: list[str], attempted: int, env: dict, trace_out: Path | None = None) -> dict:
    """One pass of perfbench/worker.py in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "worker.py"), *args]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    c = run_child(argv, env)
    if c.returncode != 0:
        return _failed_child(c, attempted, "worker")
    try:
        result = json.loads(c.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return _failed_child(c, attempted, f"worker output unreadable ({exc!r}); worker")
    return result


def _worker_args(spec: dict, session: int, seed: int) -> tuple[list[str], int]:
    if spec["kind"] == "oracle":
        return ["oracle", "--n", str(spec["n"])], EXPECTED_VERIFY[spec["n"]][0]
    return (
        [
            "query-mix",
            "--seed", str(seed),
            "--session", str(session),
            "--topics", str(spec["topics"]),
            "--pool", str(spec["pool"]),
            "--queries", str(spec["queries"]),
            "--sizes", ",".join(map(str, spec["sizes"])),
        ],
        spec["topics"] * spec["queries"],
    )


def _replay_check(result: dict, n: int) -> None:
    totals = result.get("totals")
    if totals is None:
        return
    got = tuple(totals[k] for k in VERIFY_COUNTS)
    if got != EXPECTED_VERIFY[n]:
        result["failed"] += 1
        result["errors"].append(f"replay {n}: counts {got}, expected {EXPECTED_VERIFY[n]}")


# -- aggregation -------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(spec: dict, passes: list[dict], imports: list[dict]) -> dict[str, float]:
    """Speed-scaled (see speed.py) totals and means over all passes, not
    medians: query-mix sessions differ in work, and a verify --jobs 2 pass
    peaks higher in whichever worker happened to take more chunks."""
    good = [p for p in passes if not p["failed"]] or passes
    if spec["kind"] == "query-mix":
        items = spec["topics"] * spec["queries"]
    else:
        items = EXPECTED_VERIFY[spec["n"]][0]
    return {
        "setup_s": _median(p["wall_s"] * p["scale"] for p in imports),
        "throughput_per_s": _ratio(
            items * len(good), sum(p["wall_s"] * p["scale"] for p in good)
        ),
        "cpu_s": sum(p["cpu_s"] * p["scale"] for p in good) / len(good),
        "peak_rss_mb": statistics.mean(p["peak_rss_mb"] for p in good),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds: list[dict]) -> dict[str, float]:
    """Busy times are medians over rounds of speed-scaled times; counts come
    from the first round (every round repeats the same input, and the
    counts are checked equal)."""
    counts = rounds[0]["counts"]
    busy = {
        name: _median(r["busy"].get(name, 0.0) * r["scale"] for r in rounds)
        for name in {k for r in rounds for k in r["busy"]}
    }
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in (
        "permutations.avoids_forbidden",
        "pipedreams.all_pipe_dreams",
        "pipedreams.schubert",
        "pipedreams.schubert_divdiff",
        "forests.forest_from_code",
        "forests.valid_labelings",
        "forests.forest_polynomial",
        "polynomials.eq",
        "correspondence.find_bad_pair",
    ):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in EXACT_COUNTS:
        out[name] = counts.get(name, 0)
    out["permutations.pattern_positive_ratio"] = _ratio(
        counts.get("permutations.pattern_positive", 0),
        counts.get("permutations.avoids_forbidden.calls", 0),
    )
    out["pipedreams.dreams_per_s"] = _ratio(
        counts.get("pipedreams.dreams", 0), busy.get("pipedreams.all_pipe_dreams", 0.0)
    )
    out["correspondence.bad_pair_found_ratio"] = _ratio(
        counts.get("correspondence.bad_pair_found", 0),
        counts.get("correspondence.find_bad_pair.calls", 0),
    )
    for name in (
        "correspondence.chunk_gap_p50_s",
        "correspondence.chunk_gap_max_s",
        "cli.overhead_s",
    ):
        out[name] = _median(r[name] * r["scale"] for r in rounds if name in r)
    out["trace_overhead_ratio"] = _median(r["trace_overhead_ratio"] for r in rounds)

    sessions = [r for r in rounds if "session" in r]
    if sessions:
        lat = [x * r["scale"] for r in sessions for x in r["session"]["latencies_ms"]]
        kinds = [k for r in sessions for k in r["session"]["kinds"]]
        first = [f for r in sessions for f in r["session"]["first"]]
        out["query.samples"] = len(lat)
        out["query.p50_ms"] = _percentile(lat, 50)
        out["query.p99_ms"] = _percentile(lat, 99)
        out["query.first_touch_p50_ms"] = _percentile([x for x, f in zip(lat, first) if f], 50)
        out["query.repeat_p50_ms"] = _percentile([x for x, f in zip(lat, first) if not f], 50)
        out["query.repeat_ratio"] = _ratio(first.count(False), len(first))
        for kind in QUERY_KINDS:
            mine = [x for x, k in zip(lat, kinds) if k == kind]
            out[f"query.{kind}.p50_ms"] = _percentile(mine, 50)
            out[f"query.{kind}.p99_ms"] = _percentile(mine, 99)
    return out


# -- the two kinds of run ----------------------------------------------------


def parallel_reference(copies: int) -> float:
    """Mean time of ``copies`` reference loops run at once, one here and the
    rest in child processes, so that a pass using that many cores is scaled
    by the speed of that many cores."""
    code = "from speed import reference_loop; print(flush=True); print(reference_loop())"
    children = [
        subprocess.Popen([sys.executable, "-c", code], cwd=HERE, stdout=subprocess.PIPE, text=True)
        for _ in range(copies - 1)
    ]
    times = []
    try:
        for child in children:
            child.stdout.readline()  # started; its loop begins now
        times.append(reference_loop())
        times += [float(child.stdout.readline()) for child in children]
    finally:
        for child in children:
            child.stdout.close()
            child.wait()
    return statistics.mean(times)


def _loop(step, seconds: float = 0.0, count: int = 0, reference=reference_loop) -> list[dict]:
    """Call step(i) ``count`` times, or else until the next call would end
    after ``seconds``, at least once.  With a ``reference`` each result gets
    the speed ``scale`` of reference loops run before and after it; worker
    passes measure their own, in stretches (see speed.py)."""
    deadline = time.perf_counter() + seconds
    out, took = [], []
    before = reference() if reference else 0.0
    while True:
        t0 = time.perf_counter()
        result = step(len(out))
        if reference:
            after = reference()
            result["scale"] = scale(before, after)
            before = after
        took.append(time.perf_counter() - t0)
        out.append(result)
        if count:
            if len(out) == count:
                return out
        elif time.perf_counter() + statistics.median(took) > deadline:
            return out


def untraced_passes(spec: dict, seed: int, seconds: float, env: dict) -> list[dict]:
    if spec["kind"] == "verify":
        jobs = spec["jobs"]
        reference = reference_loop if jobs == 1 else lambda: parallel_reference(jobs)
        return _loop(lambda i: verify_pass(spec["n"], jobs, env), seconds, reference=reference)

    def step(i: int) -> dict:
        args, attempted = _worker_args(spec, i, seed)
        return worker_pass(args, attempted, env)

    return _loop(step, seconds, reference=None)


def traced_round(spec: dict, seed: int, env: dict) -> dict:
    """One traced round: an untraced pass for the overhead baseline (and,
    for verify, the CLI's own numbers) and a traced pass of the same input.
    Every round of a run repeats the same input; the spans file keeps the
    last round's spans."""
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"spans-{spec['name']}-seed{seed}.jsonl"
    parts: list[dict] = []
    rnd: dict = {}
    if spec["kind"] == "verify":
        n = spec["n"]
        cli = verify_pass(n, spec["jobs"], env)
        serial = cli if spec["jobs"] == 1 else verify_pass(n, 1, env)
        replay = worker_pass(["replay", "--n", str(n)], EXPECTED_VERIFY[n][0], env, spans_file)
        _replay_check(replay, n)
        parts += [cli, replay] + ([serial] if serial is not cli else [])
        gaps = cli.get("chunk_gaps_s", [])
        rnd["correspondence.chunk_gap_p50_s"] = _median(gaps)
        rnd["correspondence.chunk_gap_max_s"] = max(gaps, default=0.0)
        rnd["cli.overhead_s"] = cli["wall_s"] - cli.get("elapsed_s", 0.0)
        baseline_s = serial.get("elapsed_s", 0.0)
        extra_counts = {"correspondence.chunks": len(gaps)}
    else:
        args, attempted = _worker_args(spec, 0, seed)
        plain = worker_pass(args, attempted, env)
        replay = worker_pass(args, attempted, env, spans_file)
        parts += [plain, replay]
        baseline_s = plain["wall_s"]
        extra_counts = {}
        if spec["kind"] == "query-mix":
            rnd["session"] = plain
    rnd["trace_overhead_ratio"] = _ratio(replay.get("request_s", 0.0), baseline_s)
    rnd["busy"] = replay.get("busy_s", {})
    rnd["counts"] = {**replay.get("counts", {}), **extra_counts}
    rnd["parts"] = parts
    return rnd


def run(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object (and more detail)."""
    env = _child_env()
    imports = _loop(lambda i: import_pass(env), count=SETUP_REPEATS)
    errors = []
    if trace:
        rounds = _loop(lambda i: traced_round(spec, seed, env), seconds)
        passes = [p for r in rounds for p in r["parts"]]
        metrics = per_layer(rounds)
        units = PER_LAYER_UNITS
        for r in rounds[1:]:
            for name in EXACT_COUNTS:
                if r["counts"].get(name, 0) != rounds[0]["counts"].get(name, 0):
                    errors.append(f"count {name} differs between traced rounds")
        scaled = rounds
        extra = {}
    else:
        passes = untraced_passes(spec, seed, seconds, env)
        metrics = end_to_end(spec, passes, imports)
        units = END_TO_END_UNITS
        scaled = passes
        extra = quoted(spec, passes, metrics)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors += [e for p in passes + imports for e in p["errors"]]
    return {
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "errors": errors,
        "quoted": extra,
        "passes": len(passes),
        "raw_wall_s": [p["wall_s"] for p in passes],
        "scale": [p["scale"] for p in scaled],
        "import_raw_wall_s": [p["wall_s"] for p in imports],
    }


def quoted(spec: dict, passes: list[dict], metrics: dict) -> dict[str, tuple[float, str]]:
    """Figures under the names they are usually quoted by.  They are
    printed but not bounded: sub-millisecond query latencies swing by a
    fifth between runs on a shared machine, speed scaling or not."""
    if spec["kind"] != "query-mix":
        return {"perms_per_s": (metrics["throughput_per_s"], "1/s")}
    lat = [x * p["scale"] for p in passes for x in p["latencies_ms"]]
    first = [f for p in passes for f in p.get("first", [])]
    return {
        "queries_per_s": (metrics["throughput_per_s"], "1/s"),
        "query_p50_ms": (_percentile(lat, 50), "ms"),
        "query_p99_ms": (_percentile(lat, 99), "ms"),
        "query_samples": (len(lat), "count"),
        "query_repeat_ratio": (_ratio(first.count(False), len(first)), "ratio"),
    }


def _report(name: str, spec: dict, seed: int, trace: bool, result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, plus the names
    the exhaustive and interactive workloads are usually quoted under."""
    lines = [f"workload {name}, seed {seed}, trace {int(trace)}, {result['passes']} passes"]
    if spec["kind"] == "query-mix":
        lines.append(
            f"  query-mix: sessions of {spec['topics']} topics, each {spec['queries']}"
            f" queries over a pool of {spec['pool']} from"
            f" S_{min(spec['sizes'])}..S_{max(spec['sizes'])}, Zipf exponent"
            f" {ZIPF_EXPONENT}, kinds " + ", ".join(f"{k} {s:.0%}" for k, s in KIND_SHARES)
        )
    for key, entry in result["metrics"].items():
        lines.append(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    for key, (value, unit) in result["quoted"].items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    lines.append(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} ratio")
    for error in result["errors"][:10]:
        lines.append(f"  FAILED: {error}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "forestry" / "cli.py").is_file():
        print(f"error: no forestry sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = {"name": args.workload, **WORKLOADS[args.workload]}
    result = run(spec, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1) + "\n")
    for line in _report(args.workload, spec, args.seed, bool(args.trace), result):
        print(line)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
