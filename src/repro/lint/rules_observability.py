"""Observability rule: the data path stays measurable.

PR 1 made "every quantitative claim is a registry series" the repo's
observability contract.  ``obs-coverage`` keeps it true structurally:
every :class:`BlockDevice` implementation (a class defining both
``read_many`` and ``write_many``) in the storage/faults packages, and
the named data-path executors — the :class:`QueryService` front end,
the :class:`BatchEvaluator` batch executor, and the ingest tier's
:class:`BatchInserter` / :class:`IngestService` /
:class:`BandwidthCoordinator` — must touch the obs registry —
``counter()`` / ``gauge()`` / ``histogram()`` (or their ``obs_*``
aliases) somewhere in the class body.

Deliberately dumb layers (the leaf disk, pure pass-through middleware
whose metering lives in :class:`MeteredDevice`) carry an explicit
``# lint: ignore[obs-coverage]`` with a justification — the decision is
visible at the class definition instead of implicit in a reviewer's
head.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = ["ObsCoverageRule"]

#: Calls that count as touching the obs registry.
OBS_CALL_NAMES = frozenset(
    {
        "counter", "gauge", "histogram", "obs_counter", "obs_gauge",
        "obs_histogram", "span",
    }
)

#: Packages whose BlockDevice implementations the rule covers.
DEVICE_PACKAGES = ("repro.storage", "repro.faults")

#: Class names always covered, wherever they live.
ALWAYS_COVERED = frozenset(
    {
        "BatchEvaluator",
        "QueryService",
        "BatchInserter",
        "IngestService",
        "BandwidthCoordinator",
        "SessionRecorder",
        "SessionReplayer",
        "EpochLog",
        "BackendNode",
        "ClusterFrontend",
    }
)


def _is_protocol(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", None
        )
        if name == "Protocol":
            return True
    return False


def _method_names(cls: ast.ClassDef) -> set[str]:
    return {
        node.name
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _touches_obs(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name in OBS_CALL_NAMES:
            return True
    return False


@register
class ObsCoverageRule(BaseRule):
    rule_id = "obs-coverage"
    description = (
        "BlockDevice implementations and the named data-path executors "
        "(QueryService, BatchEvaluator, BatchInserter, IngestService, "
        "BandwidthCoordinator) report into the obs registry (or carry "
        "a justified suppression)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        in_device_pkg = ctx.in_package(*DEVICE_PACKAGES)
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or _is_protocol(node):
                continue
            methods = _method_names(node)
            is_device = (
                in_device_pkg
                and "read_many" in methods
                and "write_many" in methods
            )
            if not is_device and node.name not in ALWAYS_COVERED:
                continue
            if not _touches_obs(node):
                kind = (
                    "BlockDevice implementation"
                    if is_device
                    else node.name
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{node.name} ({kind}) never touches the obs "
                    f"registry; emit counter()/gauge()/histogram() "
                    f"series or suppress with a justification",
                )
