"""Properties of the package as a whole: invariants that survive
``python -O`` and a command line that ends without a traceback."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli(*argv, optimize=False, **popen):
    flags = ["-O"] if optimize else []
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "forestry.cli", *argv], env=src_env(), **popen
    )


def test_no_bare_assert_in_the_library():
    # -O strips assert statements, so no invariant may rest on one
    for path in sorted((SRC / "forestry").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert at lines {found}"


def test_pipedreams_are_the_same_under_optimize():
    # the closure certifies each dream with an explicit check, not an assert
    outputs = []
    for optimize in (False, True):
        proc = cli(
            "pipedreams", "4132", "--json",
            optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("forest", "--perm", "4132", "--json"), b'"exps": [3, 0, 1]'),
        (("schubert", "4132", "--oracle"), b"x1^3*x2 + x1^3*x3\noracle: OK"),
        (("check", "2413", "--json"), b'"bad_pair": {"parent": [1, 1], "child": [2, 2]'),
    ],
)
def test_packed_sums_are_the_same_under_optimize(argv, expected):
    # labeling sums, divided differences and pipe-dream weights are packed
    # into ints and decoded, and bad-pair states are ints with a field per
    # crossing; the field and layout checks raise, they do not assert
    outputs = []
    for optimize in (False, True):
        proc = cli(
            *argv, optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert expected in outputs[0]


def test_verify_report_is_the_same_under_optimize():
    reports = []
    for optimize in (False, True):
        proc = cli(
            "verify", "5", "--jobs", "1", "--json",
            optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        report = json.loads(out)
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_closed_stdout_exits_quietly():
    # 2527 dreams, about 180 kB: more than a pipe holds, so the writer is
    # still busy when the reader goes away after one line
    proc = cli("pipedreams", "15387642", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"2527 pipe dreams for 15387642\n"
    assert b"Traceback" not in err
    assert err == b""


def test_serial_verify_loads_no_pool_and_no_dataclasses():
    # start-up cost: a serial run must not import the process pool (and the
    # multiprocessing, pickle and socket modules behind it) or dataclasses
    # (and inspect behind it)
    script = (
        "import sys\n"
        "from forestry.cli import main\n"
        "status = main(['verify', '5', '--jobs', '1', '--json'])\n"
        "heavy = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
        "print(status, sorted(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
