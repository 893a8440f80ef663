"""The one lint pass: per-file rules and whole-program analyzers.

:func:`lint_tree` parses every file under ``<root>/src/repro`` once
into a :class:`~repro.lint.engine.FileContext`, runs the ten per-file
rules on it, and reduces it with
:func:`~repro.lint.analysis.model.summarize` into the
:class:`~repro.lint.analysis.model.ProjectModel`.  The four cross-file
analyzers then run over that model:

* ``deep-lockset-race`` — attributes mutated both inside and outside a
  class's critical sections;
* ``deep-exception-contract`` — bare builtin raises reachable from
  public boundary entry points;
* ``deep-metric-drift`` / ``deep-schema-drift`` — two-way diff of
  metric registrations and ``repro.*/vN`` schema strings against the
  documentation catalogues.

Deep findings are :class:`~repro.lint.engine.Finding` records like any
other, filtered through the suppression table of the context they are
anchored in, so a ``# lint: ignore[...]`` comment silences them the
same way.  Findings anchored in docs (stale catalogue rows) have no
comment channel: the row or the code is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.lint.analysis.contracts import ExceptionContractAnalyzer
from repro.lint.analysis.drift import MetricDriftAnalyzer, SchemaDriftAnalyzer
from repro.lint.analysis.locks import LocksetRaceAnalyzer
from repro.lint.analysis.model import ProjectModel, summarize
from repro.lint.engine import (
    Finding,
    LintEngine,
    LintError,
    all_rules,
    parse,
    repo_root,
)

__all__ = ["LintReport", "SOURCE_ROOT", "checks", "lint_tree"]

#: The repo-relative tree every check reads.
SOURCE_ROOT = "src/repro"


def _analyzers() -> list:
    return [
        ExceptionContractAnalyzer(),
        LocksetRaceAnalyzer(),
        MetricDriftAnalyzer(),
        SchemaDriftAnalyzer(),
    ]


def checks() -> list:
    """All fourteen checks — per-file rules and analyzers — id-ordered."""
    return sorted([*all_rules(), *_analyzers()], key=lambda c: c.rule_id)


@dataclass
class LintReport:
    """One lint pass: its surviving findings and the model it built."""

    findings: list[Finding]
    model: ProjectModel


def lint_tree(root=None) -> LintReport:
    """Run every check over ``<root>/src/repro`` in one parse.

    ``root`` defaults to the repository this package lives in; a
    fixture tree is linted by passing its root.  Raises
    :class:`~repro.lint.engine.LintError` when ``root`` has no source
    tree, so a mistyped path is never reported clean.
    """
    root = Path(root) if root is not None else repo_root()
    source = root / SOURCE_ROOT
    if not source.is_dir():
        raise LintError(f"no {SOURCE_ROOT} tree under {root}")
    engine = LintEngine()
    model = ProjectModel(root=str(root), summaries={})
    # Each file's suppression table outlives its AST: a tree is dropped
    # once its rules ran and its summary is taken.
    suppressions = {}
    findings: list[Finding] = []
    for file in sorted(source.rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        ctx = parse(rel, file.read_text())
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        suppressions[rel] = ctx.suppressions
        findings.extend(engine.check(ctx))
        model.summaries[rel] = summarize(ctx)
    model.build_indexes()
    for analyzer in _analyzers():
        findings.extend(
            f for f in analyzer.analyze(model)
            if f.file not in suppressions
            or not suppressions[f.file].is_suppressed(f.line, f.rule_id)
        )
    return LintReport(sorted(findings), model)
