"""repro.lint — machine-checked architectural invariants.

Two halves, one goal: the contracts that keep the AIMS reproduction
scalable stay true by tooling, not convention.

* Static: :func:`lint_tree` parses ``src/repro`` once and runs all
  fourteen checks on it — the per-file rule packs
  (:mod:`~repro.lint.rules_layering`,
  :mod:`~repro.lint.rules_concurrency`,
  :mod:`~repro.lint.rules_determinism`,
  :mod:`~repro.lint.rules_observability`) and the whole-program
  analyzers (:mod:`repro.lint.analysis`) — reporting
  :class:`Finding`\\ s; ``aims lint`` is the CLI front end and CI gate.
* Dynamic: :mod:`repro.lint.lockwatch` instruments locks (opt-in via
  ``REPRO_LOCKWATCH=1``) and detects lock-order inversions — potential
  deadlocks — with both acquisition stacks attached.  It is the one
  lock-order check: the test suite run under ``REPRO_LOCKWATCH=1``
  fails on any cycle in the orders its tests nest locks in.

The rule catalogue, what each rule guards, and how to suppress one are
documented in ``docs/ARCHITECTURE.md`` ("Enforced invariants").
"""

from repro.lint.analysis import LintReport, checks, lint_tree
from repro.lint.engine import (
    BaseRule,
    FileContext,
    Finding,
    LintEngine,
    LintError,
    Rule,
    all_rules,
    get_rule,
    register,
    repo_root,
)
from repro.lint.lockwatch import (
    InstrumentedLock,
    LockOrderError,
    LockOrderGraph,
    LockOrderViolation,
    watched_lock,
)

__all__ = [
    "BaseRule",
    "FileContext",
    "Finding",
    "InstrumentedLock",
    "LintEngine",
    "LintError",
    "LintReport",
    "LockOrderError",
    "LockOrderGraph",
    "LockOrderViolation",
    "Rule",
    "all_rules",
    "checks",
    "get_rule",
    "lint_tree",
    "register",
    "repo_root",
    "watched_lock",
]
