"""repro.lint — machine-checked architectural invariants.

Two halves, one goal: the contracts that keep the AIMS reproduction
scalable stay true by tooling, not convention.

* Static: :func:`repro.lint.analysis.lint_tree` parses ``src/repro``
  once and runs every check on it — the per-file rule packs
  (:mod:`~repro.lint.rules_layering`,
  :mod:`~repro.lint.rules_concurrency`,
  :mod:`~repro.lint.rules_determinism`,
  :mod:`~repro.lint.rules_observability`) and the whole-program
  analyzers (:mod:`repro.lint.analysis`) — reporting
  :class:`~repro.lint.engine.Finding`\\ s; ``aims lint`` is the CLI
  front end and CI gate.  Invariants a grep can hold (the import
  arrows, codec containment, the stateless cluster frontends, seeded
  randomness, one clock) are greps in CI's ``lint-invariants`` job.
* Dynamic: :mod:`repro.lint.lockwatch` instruments locks (opt-in via
  ``REPRO_LOCKWATCH=1``) and detects lock-order inversions — potential
  deadlocks — with both acquisition stacks attached.  It is the one
  lock-order check: the test suite run under ``REPRO_LOCKWATCH=1``
  fails on any cycle in the orders its tests nest locks in.

Runtime modules import :mod:`repro.lint.lockwatch`, which runs this
file, so it imports nothing: ``import repro`` never loads the static
analyzer.  The rule catalogue, what each rule guards, and how to
suppress one are documented in ``docs/ARCHITECTURE.md`` ("Enforced
invariants").
"""
