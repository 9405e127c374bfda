import json
import multiprocessing
import os

import pytest

from forestry import cli, correspondence
from forestry.cli import main
from forestry.forests import forest_from_code, forest_to_json
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


def test_verify_range_checks(capsys):
    out_of_range = "forestry: error: n must be between 1 and "
    assert input_error(capsys, "verify", "0") == out_of_range + "7"
    assert input_error(capsys, "verify", "8") == out_of_range + "7"
    assert input_error(capsys, "verify", "4", "--max-n", "3") == out_of_range + "3"
    assert run(capsys, "verify", "4", "--max-n", "4")[0] == 0
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


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the patched unit only when forked",
)
def test_verify_real_worker_death_exits_1(capsys, monkeypatch):
    # every unit kills its worker outright, so the pool breaks for real
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


# --- dispatch --------------------------------------------------------------------


def test_unknown_command_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_no_command_exits_1(capsys):
    assert run(capsys)[0] == 1
