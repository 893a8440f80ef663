"""Shared fixtures: the shipped tree is linted once per session, and
simulated time is one installed clock.

Several tests gate on the real tree linting clean — through the
library and through ``aims lint``.  Each path runs once and the tests
read its result, so tier-1 pays for one library pass and one CLI pass.

A test that waits, or checks what was waited, takes ``sim_clock``: a
fresh :class:`~repro.core.clock.SimClock` installed for that test, so
sleeps return at once and durations are exact.
"""

import contextlib
import io

import pytest

from repro.cli import main as cli_main
from repro.core.clock import SimClock
from repro.lint import lint_tree


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
