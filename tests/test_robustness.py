"""Properties of the package as a whole: invariants that survive
``python -O`` and a command line that ends without a traceback."""

import ast
import json
import os
import signal
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
    # the transfer and the order-0 closure certify each dream with explicit
    # checks, not asserts
    cases = [(("4132",), 2), (("15827364",), 1462), (("15827364", "--simple-only"), 980)]
    for argv, count in cases:
        outputs = []
        for optimize in (False, True):
            proc = cli(
                "pipedreams", *argv, "--json",
                optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert err == b""
            outputs.append(json.loads(out))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == count, argv


def test_pipedreams_of_a_long_sparse_permutation():
    # 1 2 ... 1198 1200 1199 has one dream per row, all reached by simple
    # slides; the text grid would print 1199 staircases of 1199 rows, so ask
    # for JSON
    n = 1200
    perm = ",".join(map(str, [*range(1, n - 1), n, n - 1]))
    for simple_only in [(), ("--simple-only",)]:
        proc = cli(
            "pipedreams", perm, *simple_only, "--json",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        dreams = json.loads(out)
        assert sorted(d["cells"] for d in dreams) == [[[r, n - r]] for r in range(1, n)]


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


def close_fd(fd):
    # run in the child before exec: the command starts with fd closed
    return lambda: os.close(fd)


def read_only_fd(fd):
    # run in the child before exec: fd open, but for reading only, as a
    # wrapper script that opened a file on a closed stderr leaves it
    return lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


@pytest.mark.parametrize(
    "argv", [("schubert", "21"), ("check", "1432"), ("verify", "5", "--jobs", "2")]
)
def test_stdout_closed_at_start_exits_quietly(argv):
    # Python starts with sys.stdout None; the command cannot report, so it
    # stops with exit 1 and no traceback
    proc = cli(*argv, stderr=subprocess.PIPE, preexec_fn=close_fd(1))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert err == b""


@pytest.mark.parametrize("opened", [close_fd(2), read_only_fd(2)], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv", [("verify", "4"), ("verify", "5", "--jobs", "2", "--json")])
def test_stderr_closed_at_start_exits_quietly(argv, opened):
    # progress lines cannot be written: with fd 2 closed, Python would send
    # them to stdout, and a read-only fd 2 fails with EBADF; either way the
    # command stops with exit 1, and stdout gets neither report nor traceback
    proc = cli(*argv, stdout=subprocess.PIPE, preexec_fn=opened)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in out
    assert out == b""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_exits_130_without_a_traceback(jobs):
    # SIGINT to the whole session, as Ctrl-C sends it to the foreground
    # group, once the first unit is done: exit 130, nothing on stderr but
    # that progress line, and no worker left in the group; with two usable
    # CPUs, --jobs 2 really forks
    script = (
        "import sys\n"
        "from forestry import correspondence\n"
        "from forestry.cli import main\n"
        "correspondence._usable_cpus = lambda: 2\n"
        "sys.exit(main(['verify', '8', '--max-n', '8', '--jobs', sys.argv[1]]))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, jobs],
        env=src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    first = proc.stderr.readline()
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert first.startswith(b"checked "), first
    assert proc.returncode == 130
    assert b"Traceback" not in err
    assert all(line.startswith(b"checked ") for line in err.splitlines()), err
    assert out == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_serial_verify_loads_no_pool_and_no_dataclasses():
    # start-up cost: no run may import the process pool (and the
    # multiprocessing, pickle and socket modules behind it) or dataclasses
    # (and inspect behind it); with two usable CPUs, --jobs 2 really forks
    script = (
        "import os, sys\n"
        "from forestry import correspondence\n"
        "from forestry.cli import main\n"
        "correspondence._usable_cpus = lambda: 2\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "status = main(['verify', '5', '--jobs', sys.argv[1], '--json'])\n"
        "heavy = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
        "print(status, len(forks), sorted(m for m in heavy if m in sys.modules))\n"
    )
    for jobs, forks in (("1", 0), ("2", 2)):
        proc = subprocess.run(
            [sys.executable, "-c", script, jobs],
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {forks} []"
