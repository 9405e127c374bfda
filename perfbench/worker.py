"""One pass of a workload, run in a fresh interpreter so that forestry's
caches start empty.  Prints one JSON object with the pass's timings, counts
and check results on stdout.

    python3 perfbench/worker.py replay --n 7 [--trace-out FILE]
    python3 perfbench/worker.py oracle --n 7 [--trace-out FILE]
    python3 perfbench/worker.py query-mix --seed 1 --session 0 [--trace-out FILE]

``replay`` walks S_n through the public functions in the order
``_verify_batch`` uses; ``oracle`` cross-checks the pipe-dream Schubert
polynomial against divided differences for every w in S_n; ``query-mix``
answers a seeded list of library queries.  With ``--trace-out`` every call
into forestry is wrapped in a span and the spans are written to FILE.
Exceptions inside a request are counted as failures, never propagated.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from forestry.correspondence import find_bad_pair, replay_simple_moves
from forestry.forests import forest_from_code, forest_polynomial, valid_labelings
from forestry.permutations import (
    all_permutations,
    avoids_forbidden,
    contains_pattern,
    inversions,
    lehmer_code,
    trim,
    trim_zeros,
)
from forestry.pipedreams import all_pipe_dreams, schubert, schubert_divdiff

from queries import SIZES, TOPIC_POOL, TOPIC_QUERIES, TOPICS, make_queries
from spans import NullTracer, Tracer
from speed import ScaledClock

PATTERN_1432 = (1, 4, 3, 2)
MAX_ERRORS = 5


def _coefficient_sum(poly) -> int:
    return sum(c for _, c in poly.items())


def schubert_by_dreams(w, tr):
    """Close the pipe dreams first, so the ``schubert`` span is the weight
    sum over an already-closed set."""
    with tr.span("pipedreams.all_pipe_dreams"):
        dreams = all_pipe_dreams(w)
    with tr.span("pipedreams.schubert"):
        poly = schubert(w)
    if tr.enabled:
        tr.add("pipedreams.dreams", len(dreams))
        tr.add("pipedreams.schubert.terms", poly.term_count())
    return dreams, poly


def expansion_check(w, tr, enumerate_labelings: bool):
    """Pattern test, Schubert vs forest polynomial, and on 1432-avoiders the
    bad-pair search.  ``enumerate_labelings`` lists the labelings as the
    bulk verifier does; an interactive query asks only for the polynomial."""
    with tr.span("permutations.avoids_forbidden"):
        by_pattern = avoids_forbidden(w)
    _, poly = schubert_by_dreams(w, tr)
    code = lehmer_code(w)
    with tr.span("forests.forest_from_code"):
        forest = forest_from_code(code)
    if enumerate_labelings:
        with tr.span("forests.valid_labelings"):
            valid_labelings(forest)
    with tr.span("forests.forest_polynomial"):
        fpoly = forest_polynomial(forest)
    with tr.span("polynomials.eq"):
        by_expansion = poly == fpoly
    avoids_1432 = not contains_pattern(w, PATTERN_1432)
    bad = None
    if avoids_1432:
        with tr.span("correspondence.find_bad_pair"):
            bad = find_bad_pair(w)
    if tr.enabled:
        tr.add("permutations.avoids_forbidden.calls")
        tr.add("permutations.pattern_positive", by_pattern)
        tr.add("forests.labelings", _coefficient_sum(fpoly))
        tr.add("polynomials.eq.calls")
        if avoids_1432:
            tr.add("correspondence.find_bad_pair.calls")
            tr.add("correspondence.bad_pair_found", bad is not None)
            tr.add("correspondence.witness_moves", len(bad.moves) if bad else 0)
    return by_pattern, by_expansion, avoids_1432, bad


def check_verdicts(w, by_pattern, by_expansion, avoids_1432, bad) -> str:
    """Empty when the verdicts are consistent, else what went wrong."""
    if by_pattern != by_expansion:
        return f"{w}: pattern {by_pattern} but expansion {by_expansion}"
    if avoids_1432 and (bad is None) != by_expansion:
        return f"{w}: bad pair {bad is not None} but expansion {by_expansion}"
    if bad is not None:
        pos = replay_simple_moves(w, bad.moves)
        if pos[bad.child][0] > pos[bad.parent][0]:
            return f"{w}: witness ends with the child below its parent"
    return ""


class Pass:
    """Timing, resource use, failures and latencies of one pass.  Times are
    raw; ``scale`` converts them to a quiet machine (see speed.py)."""

    def __init__(self, tr) -> None:
        self.tr = tr
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ms: list[float] = []
        self.clock = ScaledClock()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def stop(self) -> None:
        self.clock.stop()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def result(self, **extra) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "wall_s": self.clock.wall_s,
            "cpu_s": self.clock.cpu_s,
            "scale": self.clock.factor,
            "peak_rss_mb": self.peak_rss_mb,
            "latencies_ms": self.latencies_ms,
        }
        if self.tr.enabled:
            spans = [s for s in self.tr.spans if s[3] < 0]
            out["request_s"] = sum(end - start for _, start, end, _, _ in spans)
            out["busy_s"] = self.tr.busy()
            out["counts"] = dict(self.tr.counts)
        out.update(extra)
        return out


def run_replay(n: int, tr) -> dict:
    p = Pass(tr)
    totals = {"total": 0, "pattern_positive": 0, "expansion_positive": 0, "badpair_checked": 0}
    p.clock.start()
    for w in all_permutations(n):
        w = trim(w)
        p.clock.tick()
        p.attempted += 1
        tr.begin_request("verify.permutation")
        try:
            verdicts = expansion_check(w, tr, enumerate_labelings=True)
        except Exception as exc:  # the pass must go on and report it
            tr.end_request()
            p.fail(f"{w}: {exc!r}")
            continue
        tr.end_request()
        by_pattern, by_expansion, avoids_1432, _ = verdicts
        totals["total"] += 1
        totals["pattern_positive"] += by_pattern
        totals["expansion_positive"] += by_expansion
        totals["badpair_checked"] += avoids_1432
        problem = check_verdicts(w, *verdicts)
        if problem:
            p.fail(problem)
    p.stop()
    return p.result(totals=totals)


def run_oracle(n: int, tr) -> dict:
    p = Pass(tr)
    p.clock.start()
    for w in all_permutations(n):
        w = trim(w)
        p.clock.tick()
        p.attempted += 1
        tr.begin_request("oracle.permutation")
        t0 = time.perf_counter()
        try:
            _, poly = schubert_by_dreams(w, tr)
            with tr.span("pipedreams.schubert_divdiff"):
                other = schubert_divdiff(w)
            with tr.span("polynomials.eq"):
                same = poly == other
        except Exception as exc:
            tr.end_request()
            p.fail(f"{w}: {exc!r}")
            continue
        p.latencies_ms.append((time.perf_counter() - t0) * 1000)
        tr.end_request()
        if tr.enabled:
            m = len(w)
            tr.add("pipedreams.divdiff_steps", m * (m - 1) // 2 - inversions(w))
            tr.add("polynomials.eq.calls")
        if not same:
            p.fail(f"{w}: pipe dreams and divided differences disagree")
    p.stop()
    return p.result()


def _query(kind: str, w, tr):
    if kind == "check":
        return expansion_check(w, tr, enumerate_labelings=False)
    if kind == "schubert":
        return schubert_by_dreams(w, tr)[1]
    if kind == "pipedreams":
        with tr.span("pipedreams.all_pipe_dreams"):
            dreams = all_pipe_dreams(w)
        if tr.enabled:
            tr.add("pipedreams.dreams", len(dreams))
        return dreams
    if kind == "forest":
        with tr.span("forests.forest_from_code"):
            forest = forest_from_code(lehmer_code(w))
        with tr.span("forests.forest_polynomial"):
            fpoly = forest_polynomial(forest)
        if tr.enabled:
            tr.add("forests.labelings", _coefficient_sum(fpoly))
        return fpoly
    raise ValueError(f"unknown query kind {kind!r}")


def _check_query(kind: str, w, out) -> str:
    code = trim_zeros(lehmer_code(w))
    if kind == "check":
        return check_verdicts(w, *out)
    if kind in ("schubert", "forest"):
        if out.leading_monomial() != code:
            return f"{kind} {w}: leading monomial is not the Lehmer code"
        return ""
    if len(out) != _coefficient_sum(schubert(w)):
        return f"pipedreams {w}: dream count differs from the Schubert coefficient sum"
    return ""


def run_queries(queries, tr) -> dict:
    p = Pass(tr)
    seen: set = set()
    kinds, first, outputs = [], [], []
    p.clock.start()
    for kind, w in queries:
        p.clock.tick()
        p.attempted += 1
        tr.begin_request(f"query.{kind}")
        t0 = time.perf_counter()
        try:
            out = _query(kind, w, tr)
        except Exception as exc:
            tr.end_request()
            p.fail(f"{kind} {w}: {exc!r}")
            outputs.append(None)
            continue
        p.latencies_ms.append((time.perf_counter() - t0) * 1000)
        tr.end_request()
        kinds.append(kind)
        first.append((kind, w) not in seen)
        seen.add((kind, w))
        outputs.append(out)
    p.stop()
    # checks run after the timed phase so they neither add to its time nor
    # fill caches that a later query would hit
    for (kind, w), out in zip(queries, outputs):
        if out is None:
            continue
        try:
            problem = _check_query(kind, w, out)
        except Exception as exc:
            problem = f"checking {kind} {w}: {exc!r}"
        if problem:
            p.fail(problem)
    return p.result(kinds=kinds, first=first)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("replay", "oracle", "query-mix"))
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--topics", type=int, default=TOPICS)
    ap.add_argument("--pool", type=int, default=TOPIC_POOL, help="permutations per topic")
    ap.add_argument("--queries", type=int, default=TOPIC_QUERIES, help="queries per topic")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)))
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    tr = Tracer() if args.trace_out else NullTracer()
    if args.mode == "replay":
        result = run_replay(args.n, tr)
    elif args.mode == "oracle":
        result = run_oracle(args.n, tr)
    else:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        queries = make_queries(
            args.seed, args.session, args.topics, args.pool, args.queries, sizes
        )
        result = run_queries(queries, tr)
    if args.trace_out:
        tr.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
