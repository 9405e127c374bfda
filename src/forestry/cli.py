"""Command-line front end.

Subcommands: schubert, forest, check, pipedreams, verify.  Exit codes:
0 success / verdicts agree, 1 usage or parse errors, a reader that closed
stdout early, a standard output or error closed at start or not writable,
a ``verify`` worker process that died or no memory left, 2 a verdict split
(the pattern test and the polynomial test disagreeing), a bad-pair split
(on a 1432-avoider, a bad pair on a forest or none on a non-forest) or an
oracle mismatch, 130 Ctrl-C.  ``--json`` keeps stdout machine-parseable;
progress chatter for long verification runs goes to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Optional

from .correspondence import (
    WorkerDied,
    find_bad_pair,
    is_forest_by_expansion,
    verify_theorem,
)
from .forests import (
    forest_from_code,
    forest_polynomial,
    forest_to_json,
    render_forest,
)
from .permutations import (
    FORBIDDEN_PATTERNS,
    PATTERN_1432,
    LehmerCode,
    format_permutation,
    lehmer_code,
    parse_permutation,
    pattern_witness,
    trim,
)
from .pipedreams import (
    all_pipe_dreams,
    render,
    schubert,
    schubert_divdiff,
    simple_closure,
    weight,
)
from .polynomials import Polynomial

DEFAULT_MAX_N = 7


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for verdict
    # splits here, so route usage problems to exit code 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="forestry", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("schubert", help="print the Schubert polynomial of a permutation")
    p.add_argument("perm", help='one-line notation: "4132", or "10,2,..." past n=9')
    p.add_argument(
        "--oracle",
        action="store_true",
        help="recompute via divided differences and compare",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("forest", help="print a forest polynomial and its forest")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--perm", help="use the forest of this permutation's code")
    source.add_argument(
        "--code",
        nargs="?",
        const="",
        help='comma-separated code such as "3,0,1,0"; empty for the empty forest',
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "check", help="is the Schubert polynomial of w a forest polynomial?"
    )
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pipedreams", help="draw every reduced pipe dream of w")
    p.add_argument("perm")
    p.add_argument(
        "--simple-only",
        action="store_true",
        help="only dreams reachable by order-0 ladder moves",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "verify",
        help="exhaustively compare the pattern and polynomial tests over S_n",
    )
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help=f"cap on n (default {DEFAULT_MAX_N})",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: the CPUs this process may use)",
    )
    return parser


def _parse_code_arg(text: str) -> LehmerCode:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse code {text!r}") from None


def _cmd_schubert(args) -> int:
    w = parse_permutation(args.perm)
    poly = schubert(w)
    oracle: Optional[str] = None
    if args.oracle:
        oracle = "OK" if schubert_divdiff(w) == poly else "MISMATCH"
    if args.json:
        body = poly.to_json_obj()
        print(json.dumps({"polynomial": body, "oracle": oracle} if args.oracle else body))
    else:
        print(poly)
        if oracle is not None:
            print(f"oracle: {oracle}")
    return 0 if oracle in (None, "OK") else 2


def _cmd_forest(args) -> int:
    if args.perm is not None:
        code = lehmer_code(trim(parse_permutation(args.perm)))
    else:
        code = _parse_code_arg(args.code)
    forest = forest_from_code(code)
    poly = forest_polynomial(forest)
    if args.json:
        obj = forest_to_json(forest)
        obj["polynomial"] = poly.to_json_obj()
        print(json.dumps(obj))
    else:
        print(poly)
        for line in render_forest(forest):
            print(line)
    return 0


def _id_text(vertex: tuple[int, int]) -> str:
    return f"row{vertex[0]}#{vertex[1]}"


def _cmd_check(args) -> int:
    w = parse_permutation(args.perm)
    hits = [
        (p, idx)
        for p in FORBIDDEN_PATTERNS
        if (idx := pattern_witness(w, p)) is not None
    ]
    by_pattern = not hits
    by_expansion = is_forest_by_expansion(w)
    searched = PATTERN_1432 not in (p for p, _ in hits)
    bad = find_bad_pair(w) if searched else None

    if by_pattern:
        headline = "forest: yes" if by_expansion else "forest: pattern test says yes"
    else:
        contained = ", ".join(
            f"{format_permutation(p)} at indices ({','.join(map(str, idx))})"
            for p, idx in hits
        )
        headline = f"NOT forest: contains {contained}"
        if bad is not None:
            headline += f"; bad pair {_id_text(bad.parent)} / {_id_text(bad.child)}"
    # on a 1432-avoider a bad pair must appear exactly when the expansion
    # test fails, as verify's cross-check counts
    badpair_split = searched and (bad is not None) == by_expansion
    agree = by_pattern == by_expansion and not badpair_split

    if args.json:
        print(
            json.dumps(
                {
                    "permutation": w,
                    "pattern_forest": by_pattern,
                    "expansion_forest": by_expansion,
                    "agree": agree,
                    "patterns": [{"pattern": p, "indices": idx} for p, idx in hits],
                    "bad_pair": None
                    if bad is None
                    else {"parent": bad.parent, "child": bad.child, "moves": bad.moves},
                }
            )
        )
    else:
        print(headline)
        print(f"pattern test: {'forest' if by_pattern else 'not a forest'}")
        print(
            "expansion test: "
            + (
                "Schubert polynomial equals the forest polynomial"
                if by_expansion
                else "Schubert polynomial differs from the forest polynomial"
            )
        )
        if bad is not None:
            print(
                f"bad pair: parent {_id_text(bad.parent)}, child {_id_text(bad.child)},"
                f" witnessed in {len(bad.moves)} simple move(s)"
            )
        if by_pattern != by_expansion:
            print("VERDICT SPLIT: the two tests disagree", file=sys.stderr)
        if badpair_split:
            found = "no bad pair on a non-forest" if bad is None else "a bad pair on a forest"
            print(f"BAD-PAIR SPLIT: {found}", file=sys.stderr)
    return 0 if agree else 2


def _cmd_pipedreams(args) -> int:
    w = parse_permutation(args.perm)
    dreams = simple_closure(w) if args.simple_only else all_pipe_dreams(w)
    # distinct dreams have distinct cell lists, so no two dreams tie and
    # the sort never compares the dreams themselves
    ordered = sorted((weight(d), sorted(d), d) for d in dreams)
    size = len(trim(w)) if trim(w) else 1
    if args.json:
        print(json.dumps([{"cells": cells, "weight": exps} for exps, cells, _ in ordered]))
        return 0
    label = "dreams in the simple-move closure" if args.simple_only else "pipe dreams"
    print(f"{len(ordered)} {label} for {format_permutation(w)}")
    for exps, _, dream in ordered:
        print()
        for line in render(dream, size):
            print(line)
        print(f"weight: {Polynomial.monomial(exps)}")
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if not 1 <= args.n <= args.max_n:
        raise ValueError(f"n must be between 1 and {args.max_n}")

    def progress(done: int, total: int) -> None:
        print(f"checked {done}/{total} permutations", file=sys.stderr, flush=True)

    report = verify_theorem(args.n, jobs=args.jobs, progress=progress)
    trouble = report.disagreements or report.badpair_disagreements
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(f"S_{report.n}: checked {report.total} permutations")
        print(
            f"pattern-positive: {report.pattern_positive},"
            f" expansion-positive: {report.expansion_positive}"
        )
        print(f"disagreements: {len(report.disagreements)}")
        for entry in report.disagreements:
            print(f"  {entry}")
        print(
            f"bad-pair cross-check: {report.badpair_checked} permutations,"
            f" {len(report.badpair_disagreements)} disagreements"
        )
        for entry in report.badpair_disagreements:
            print(f"  {entry}")
        print(f"elapsed: {report.elapsed_ms} ms")
    return 2 if trouble else 0


_COMMANDS = {
    "schubert": _cmd_schubert,
    "forest": _cmd_forest,
    "check": _cmd_check,
    "pipedreams": _cmd_pipedreams,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    if sys.stdout is None or sys.stderr is None:
        # a standard stream was closed at start, so the command could not
        # report; Python would send what goes to a closed stderr to stdout
        return 1
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except KeyboardInterrupt:
        # Ctrl-C: the status a shell gives a process SIGINT ended, without
        # the traceback; a parallel run has killed and reaped its workers
        return 130
    except (ValueError, WorkerDied) as exc:
        # malformed input or a dead verify worker: the library's message,
        # on one line
        print(f"forestry: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the frames that ran out, so printing can work
        print("forestry: error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (``forestry ... | head``); point stdout at
        # devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # a standard stream that cannot be written, as a closed stderr is
        # when a wrapper script reopened its descriptor for reading
        if exc.errno != errno.EBADF:
            raise
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
