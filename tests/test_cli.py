import contextlib
import io
import json
import os
import weakref
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from forestry import cli, correspondence
from forestry.cli import main
from forestry.correspondence import find_bad_pair, is_forest_by_expansion, replay_simple_moves
from forestry.forests import forest_from_code, forest_to_json
from forestry.permutations import all_permutations
from forestry.pipedreams import schubert


def run(capsys, *argv):
    # usage errors surface as SystemExit(1); either spelling exits 1 in the shell
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def input_error(capsys, *argv):
    # malformed input: exit 1, nothing on stdout, one error line, no traceback
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("forestry: error: ")
    return line


# --- schubert -----------------------------------------------------------------


def test_schubert_fixture(capsys):
    code, out, _ = run(capsys, "schubert", "4132")
    assert code == 0
    assert out == "x1^3*x2 + x1^3*x3\n"


def test_schubert_identity(capsys):
    code, out, _ = run(capsys, "schubert", "1")
    assert code == 0
    assert out == "1\n"


def test_schubert_oracle(capsys):
    code, out, _ = run(capsys, "schubert", "15342", "--oracle")
    assert code == 0
    assert out.endswith("oracle: OK\n")


def test_schubert_json(capsys):
    code, out, _ = run(capsys, "schubert", "4132", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": 1, "exps": [3, 1]},
        {"coeff": 1, "exps": [3, 0, 1]},
    ]


def test_schubert_json_round_trips(capsys):
    _, out, _ = run(capsys, "schubert", "41532", "--json")
    assert json.loads(out) == schubert((4, 1, 5, 3, 2)).to_json_obj()


def test_schubert_parse_error(capsys):
    expected = "forestry: error: cannot parse permutation '41x2'"
    for command in ["schubert", "check", "pipedreams"]:
        assert input_error(capsys, command, "41x2") == expected
    assert input_error(capsys, "schubert", "") == "forestry: error: empty permutation"
    assert input_error(capsys, "check", "1123") == (
        "forestry: error: '1123' is not a rearrangement of 1..4"
    )


# --- forest ---------------------------------------------------------------------


def test_forest_from_code(capsys):
    code, out, _ = run(capsys, "forest", "--code", "3,0,1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1^3*x2 + x1^3*x3"
    assert lines[1] == "(row 1, #3) rho=1"
    assert len(lines) == 5


def test_forest_from_perm_matches_code(capsys):
    _, from_perm, _ = run(capsys, "forest", "--perm", "4132")
    _, from_code, _ = run(capsys, "forest", "--code", "3,0,1,0")
    assert from_perm == from_code


def test_forest_empty_code(capsys):
    code, out, _ = run(capsys, "forest", "--code")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_forest_requires_exactly_one_source(capsys):
    assert run(capsys, "forest")[0] == 1
    assert run(capsys, "forest", "--perm", "4132", "--code", "1")[0] == 1


def test_forest_rejects_bad_code(capsys):
    assert input_error(capsys, "forest", "--code", "1,x") == (
        "forestry: error: cannot parse code '1,x'"
    )
    assert input_error(capsys, "forest", "--code", "1,-2") == (
        "forestry: error: code entries must be nonnegative"
    )
    assert input_error(capsys, "forest", "--perm", "12x") == (
        "forestry: error: cannot parse permutation '12x'"
    )


def test_forest_deep_code(capsys):
    code, out, err = run(capsys, "forest", "--code", ",".join(["1"] * 1100))
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "*".join(f"x{i}" for i in range(1, 1101))


def test_forest_out_of_memory_exits_1(capsys, monkeypatch):
    # nothing really runs out here: the forest builder raises as a huge
    # code makes it do under a memory limit, while its frame still holds a
    # hoard, and the hoard is freed before the error line is printed
    hoards, freed = [], []

    def exhausted(code):
        hoard = set()
        hoards.append(weakref.ref(hoard))
        raise MemoryError

    def watched_print(*args, **kwargs):
        freed.append(hoards[0]() is None)
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "forest_from_code", exhausted)
    monkeypatch.setattr(cli, "print", watched_print, raising=False)
    assert input_error(capsys, "forest", "--code", "99999999999999999999") == (
        "forestry: error: out of memory"
    )
    assert freed == [True]


def test_forest_json(capsys):
    code, out, _ = run(capsys, "forest", "--code", "2,1,1,0,1,0,0,1", "--json")
    assert code == 0
    obj = json.loads(out)
    poly = obj.pop("polynomial")
    assert obj == forest_to_json(forest_from_code((2, 1, 1, 0, 1, 0, 0, 1)))
    assert sum(term["coeff"] for term in poly) == 32


# --- check ----------------------------------------------------------------------


def test_check_identity(capsys):
    code, out, _ = run(capsys, "check", "1234")
    assert code == 0
    assert out.splitlines()[0] == "forest: yes"


def test_check_single_pattern(capsys):
    code, out, _ = run(capsys, "check", "24513")
    assert code == 0
    assert (
        out.splitlines()[0]
        == "NOT forest: contains 2413 at indices (1,2,4,5); bad pair row1#1 / row2#2"
    )


def test_check_lists_every_pattern(capsys):
    code, out, _ = run(capsys, "check", "146235")
    assert code == 0
    assert out.splitlines()[0] == (
        "NOT forest: contains 2413 at indices (2,3,4,6),"
        " 14523 at indices (1,2,3,4,5); bad pair row2#1 / row3#3"
    )


def test_check_no_bad_pair_line_under_1432(capsys):
    code, out, _ = run(capsys, "check", "1432")
    assert code == 0
    assert out.splitlines()[0] == "NOT forest: contains 1432 at indices (1,2,3,4)"
    assert "bad pair" not in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "321465", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pattern_forest"] is False
    assert obj["expansion_forest"] is False
    assert obj["agree"] is True
    assert obj["patterns"] == [
        {"pattern": [3, 2, 1, 5, 4], "indices": [1, 2, 3, 5, 6]}
    ]
    assert obj["bad_pair"]["parent"] == [1, 2]
    assert obj["bad_pair"]["child"] == [5, 1]


def test_check_json_moves_replay_as_printed(capsys):
    # the moves come back from JSON as [r, t] lists; they replay to the
    # placement of the tuple moves
    witnessed = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            code, out, _ = run(capsys, "check", "".join(map(str, w)), "--json")
            assert code == 0
            bad = json.loads(out)["bad_pair"]
            if bad is None:
                continue
            witnessed += 1
            expected = replay_simple_moves(w, find_bad_pair(w).moves)
            assert replay_simple_moves(w, bad["moves"]) == expected, w
    assert witnessed > 0


def test_check_reports_a_verdict_split(capsys, monkeypatch):
    # with the expansion test's answer flipped, 1432 splits the verdicts
    monkeypatch.setattr(cli, "is_forest_by_expansion", lambda w: not is_forest_by_expansion(w))
    code, out, err = run(capsys, "check", "1432")
    assert code == 2
    assert out.splitlines()[:3] == [
        "NOT forest: contains 1432 at indices (1,2,3,4)",
        "pattern test: not a forest",
        "expansion test: Schubert polynomial equals the forest polynomial",
    ]
    assert err == "VERDICT SPLIT: the two tests disagree\n"
    code, out, err = run(capsys, "check", "1432", "--json")
    assert code == 2
    obj = json.loads(out)
    assert (obj["pattern_forest"], obj["expansion_forest"], obj["agree"]) == (False, True, False)
    assert err == ""


@pytest.mark.parametrize(
    "perm, witness, found",
    [
        ("2413", None, "no bad pair on a non-forest"),
        ("4132", correspondence.BadPair((1, 1), (3, 1), ()), "a bad pair on a forest"),
    ],
)
def test_check_reports_a_bad_pair_split(capsys, monkeypatch, perm, witness, found):
    # on a 1432-avoider the bad-pair search must agree with the expansion
    # test, as verify's cross-check counts; the pattern verdicts still agree
    monkeypatch.setattr(cli, "find_bad_pair", lambda w: witness)
    code, _, err = run(capsys, "check", perm)
    assert code == 2
    assert err == f"BAD-PAIR SPLIT: {found}\n"
    code, out, err = run(capsys, "check", perm, "--json")
    assert code == 2
    obj = json.loads(out)
    assert obj["pattern_forest"] == obj["expansion_forest"]
    assert obj["agree"] is False
    assert err == ""


# --- pipedreams ---------------------------------------------------------------


def test_pipedreams_fixture(capsys):
    code, out, _ = run(capsys, "pipedreams", "4132")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 pipe dreams for 4132"
    # bottom dream (left-justified) prints first
    assert lines[2:6] == ["+++", "..", "+", "weight: x1^3*x3"]
    assert "weight: x1^3*x2" in lines


def test_pipedreams_identity(capsys):
    code, out, _ = run(capsys, "pipedreams", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 pipe dreams for 1"
    assert "(empty)" in lines


def test_pipedreams_simple_only_is_smaller(capsys):
    _, full, _ = run(capsys, "pipedreams", "1432")
    _, only, _ = run(capsys, "pipedreams", "1432", "--simple-only")
    assert full.splitlines()[0] == "5 pipe dreams for 1432"
    assert only.splitlines()[0] == "4 dreams in the simple-move closure for 1432"


def test_pipedreams_json(capsys):
    code, out, _ = run(capsys, "pipedreams", "4132", "--json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj) == 2
    assert obj[0]["cells"] == [[1, 1], [1, 2], [1, 3], [3, 1]]
    assert obj[0]["weight"] == [3, 0, 1]


def test_pipedreams_deterministic(capsys):
    _, first, _ = run(capsys, "pipedreams", "41532")
    _, second, _ = run(capsys, "pipedreams", "41532")
    assert first == second


# --- verify ---------------------------------------------------------------------


def test_verify_text_report(capsys):
    code, out, err = run(capsys, "verify", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "S_4: checked 24 permutations"
    assert lines[1] == "pattern-positive: 21, expansion-positive: 21"
    assert lines[2] == "disagreements: 0"
    assert lines[3] == "bad-pair cross-check: 23 permutations, 0 disagreements"
    assert lines[4].startswith("elapsed: ")
    assert "checked 24/24 permutations" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "4", "--json", "--jobs", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    assert obj["total"] == 24
    assert obj["disagreements"] == []
    assert obj["badpair_disagreements"] == []


def test_verify_reports_verdict_splits(capsys, monkeypatch):
    # with no avoiders every pattern verdict is negative, so each of the
    # 21 expansion-positive permutations is a split, listed in order
    monkeypatch.setattr(correspondence, "avoider_table", lambda pattern_sets, n: {})
    code, out, _ = run(capsys, "verify", "4", "--jobs", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines[1:4] == [
        "pattern-positive: 0, expansion-positive: 21",
        "disagreements: 21",
        "  {'permutation': [], 'pattern': False, 'expansion': True}",
    ]
    assert all(line.startswith("  {'permutation': ") for line in lines[3:24])
    assert lines[24] == "bad-pair cross-check: 0 permutations, 0 disagreements"
    assert lines[25].startswith("elapsed: ") and len(lines) == 26


def test_verify_reports_bad_pair_disagreements(capsys, monkeypatch):
    # a walk that always stops claims a bad pair for each 1432-avoider, so
    # the 21 whose expansion holds disagree with it
    monkeypatch.setattr(correspondence, "_search_bad_pair", lambda code, steps, n: ([], {}, 0))
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    first = {"permutation": [], "bad_pair_found": True, "expansion_equal": True}
    code, out, _ = run(capsys, "verify", "4", "--jobs", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines[2:5] == [
        "disagreements: 0",
        "bad-pair cross-check: 23 permutations, 21 disagreements",
        f"  {first}",
    ]
    assert all(line.startswith("  {'permutation': ") for line in lines[4:25])
    assert lines[25].startswith("elapsed: ") and len(lines) == 26
    code, out, _ = run(capsys, "verify", "4", "--json", "--jobs", "2")
    assert code == 2
    entries = json.loads(out)["badpair_disagreements"]
    assert len(entries) == 21 and entries[0] == first


def test_verify_range_checks(capsys):
    out_of_range = "forestry: error: n must be between 1 and "
    assert input_error(capsys, "verify", "0") == out_of_range + "7"
    assert input_error(capsys, "verify", "8") == out_of_range + "7"
    assert input_error(capsys, "verify", "4", "--max-n", "3") == out_of_range + "3"
    assert run(capsys, "verify", "4", "--max-n", "4")[0] == 0
    assert input_error(capsys, "verify", "3", "--max-n", "0") == (
        "forestry: error: --max-n must be at least 1"
    )
    assert input_error(capsys, "verify", "2", "--jobs", "0") == (
        "forestry: error: --jobs must be at least 1"
    )


def test_verify_worker_crash_exits_1(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise correspondence.WorkerDied("a worker died")

    monkeypatch.setattr(cli, "verify_theorem", crash)
    code, out, err = run(capsys, "verify", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("forestry: error: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers")
def test_verify_real_worker_death_exits_1(capsys, monkeypatch):
    # every unit kills its worker outright, so the worker's pipe closes
    # before it answers
    def die(*args):
        os._exit(3)

    monkeypatch.setattr(correspondence, "_verify_unit", die)
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    code, out, err = run(capsys, "verify", "4", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "forestry: error: a worker process died before verify finished"
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers")
def test_verify_worker_out_of_memory_exits_1(capsys, monkeypatch):
    # a worker that runs out of memory dies with it, so the run ends as
    # for any dead worker
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(correspondence, "_verify_unit", exhausted)
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    code, out, err = run(capsys, "verify", "4", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "forestry: error: a worker process died before verify finished"
    ]


def test_verify_with_an_unwritable_stderr_exits_1(monkeypatch):
    # a stderr whose descriptor is open for reading only, as a wrapper
    # script can leave a closed one: the first progress line fails with
    # EBADF, and the run stops with exit 1 instead of a traceback
    raw = open(os.open(os.devnull, os.O_RDONLY), "wb", buffering=0)
    # unbuffered, so no failed line is left to fail again on close
    with io.TextIOWrapper(raw, write_through=True) as unwritable:
        monkeypatch.setattr("sys.stderr", unwritable)
        assert main(["verify", "4"]) == 1


# --- dispatch --------------------------------------------------------------------


def test_unknown_command_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_no_command_exits_1(capsys):
    assert run(capsys)[0] == 1


# --- fuzz ------------------------------------------------------------------------

COMMANDS = ["schubert", "forest", "check", "pipedreams", "verify", "frobnicate"]
FLAGS = ["--json", "--oracle", "--simple-only", "--perm", "--code", "--max-n", "--jobs", "-h"]
# no integer above 4, so verify's n and --max-n stay small
SMALL = ["-1", "0", "1", "2", "3", "4", "x", ""]
# permutations and codes, valid and malformed; as a code, none is long
WORDS = ["21", "132", "321", "1,4,3,2", "4,1,3,2", "2,4,1,3", "3,1,5,2,4",
         "11", "41x2", "1,,2", "0,1", "3,0,1,0"]


@st.composite
def argv_lists(draw):
    # a command, often with a positional value first, then any tokens
    command = draw(st.sampled_from(COMMANDS))
    values = SMALL + ([] if command == "verify" else WORDS)
    head = draw(st.lists(st.sampled_from(values), max_size=1))
    tail = draw(st.lists(st.sampled_from(FLAGS + values + COMMANDS), max_size=4))
    return [command, *head, *tail]


@settings(max_examples=300, deadline=None)
@given(argv_lists())
def test_fuzzed_command_lines_end_with_a_documented_exit_code(argv):
    # any small command line exits 0, 1 or 2, never with a traceback; at
    # most two usable CPUs, so verify starts at most two workers
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(correspondence, "_usable_cpus", lambda: 2), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2), (argv, err.getvalue())
