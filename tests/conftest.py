"""Shared fixtures: the shipped tree is linted once per session, and
simulated time is one installed clock.

Several tests gate on the real tree linting clean — through the
library and through ``aims lint``.  Each path runs once and the tests
read its result, so tier-1 pays for one library pass and one CLI pass.

A test that waits, or checks what was waited, takes ``sim_clock``: a
fresh :class:`~repro.core.clock.SimClock` installed for that test, so
sleeps return at once and durations are exact.

Under ``REPRO_LOCKWATCH=1`` every ``watched_lock`` is instrumented and
the session's lock-ordering graph is the gate: the run prints
``lockwatch: N ordering edges, M cycles`` and fails on any cycle, or
on no edge at all (a watcher switched off somewhere checks nothing).
"""

import contextlib
import io

import pytest

from repro.cli import main as cli_main
from repro.core.clock import SimClock
from repro.lint import lockwatch
from repro.lint.analysis import lint_tree


@pytest.fixture(scope="session")
def repo_lint():
    """``lint_tree()`` over the shipped tree."""
    return lint_tree()


@pytest.fixture(scope="session")
def repo_lint_cli():
    """``aims lint`` over the shipped tree: ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["lint"])
    return code, out.getvalue()


@pytest.fixture
def sim_clock():
    """A fresh ``SimClock``, installed process-wide for the test."""
    with SimClock() as clock:
        yield clock


def pytest_sessionfinish(session):
    """The ``REPRO_LOCKWATCH=1`` gate over the whole session's graph."""
    if not lockwatch.enabled():
        return
    graph = lockwatch.global_graph()
    edges, found = graph.edges(), lockwatch.violations()
    report = session.config.pluginmanager.get_plugin("terminalreporter")
    report.write_line("")  # end the progress line
    report.write_line(
        f"lockwatch: {len(edges)} ordering edges, {len(found)} cycles"
    )
    for violation in found:
        report.write_line(violation.format())
    if found or not edges:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
