"""Shared pytest plumbing.

Tests marked ``@pytest.mark.acceptance(n, label)`` feed a per-criterion
scoreboard that is printed after the run, one line per criterion.  Several
tests may share a criterion number; the worst outcome wins (FAIL beats
XFAIL beats PASS).
"""

import os

import pytest

EXTENDED = os.environ.get("FORESTRY_EXTENDED") == "1"

# criterion number -> [label, status]
_SCOREBOARD: dict[int, list] = {}

_RANK = {"PASS": 0, "XFAIL": 1, "FAIL": 2}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): ties a test to a numbered acceptance criterion",
    )
    config.addinivalue_line(
        "markers",
        "extended: long exhaustive runs, enabled by FORESTRY_EXTENDED=1",
    )


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or not:
    verify's forked workers must all be killed and reaped on the way out."""
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        left.append(pid or "a running one")
        if not pid:
            break
    if left:
        pytest.fail(f"the test left child processes unreaped: {left}")


def pytest_collection_modifyitems(config, items):
    skip_long = pytest.mark.skip(reason="set FORESTRY_EXTENDED=1 to run")
    for item in items:
        if "extended" in item.keywords and not EXTENDED:
            item.add_marker(skip_long)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None or report.when != "call":
        return
    num, label = marker.args
    entry = _SCOREBOARD.setdefault(num, [label, "PASS"])
    if report.failed:
        status = "FAIL"
    elif report.skipped:
        # strict-xfail tests land here; plain skips don't change the verdict
        status = "XFAIL" if hasattr(report, "wasxfail") else entry[1]
    else:
        status = "PASS"
    if _RANK[status] > _RANK[entry[1]]:
        entry[1] = status


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_SCOREBOARD):
        label, status = _SCOREBOARD[num]
        terminalreporter.write_line(f"criterion {num:2d}: {status:5s} - {label}")
