"""Layering rule: the storage stack stays behind its builder.

``layering-middleware-construction`` encodes a contract
``docs/ARCHITECTURE.md`` states in prose: device middleware and the
simulated disk are wired exclusively by :meth:`StorageSpec.build`;
nothing else hand-builds a layer, so every stack in the system has the
one layer order and is reproducible from a spec.

The subsystem import arrows, CRC codec containment and the cluster
tier's stateless frontends are textual invariants, held by greps in
CI's ``lint-invariants`` job (ARCHITECTURE, "Enforced invariants").
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = ["MiddlewareConstructionRule"]

#: Constructors only the device-stack modules may call.
MIDDLEWARE_CONSTRUCTORS = frozenset(
    {
        "SimulatedDisk",
        "CachingDevice",
        "CrcFramedDevice",
        "MeteredDevice",
        "ResilientDevice",
        "FaultyDevice",
        "ShardedDevice",
        "ReplicatedDevice",
    }
)

#: Modules that implement the stack and therefore construct layers.
DEVICE_MODULES = frozenset(
    {
        "repro.storage.device",
        "repro.storage.sharding",
        "repro.storage.replication",
        "repro.faults.plan",
    }
)


def _call_name(node: ast.Call) -> str | None:
    """The terminal name of a call target (``Foo(...)`` / ``m.Foo(...)``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class MiddlewareConstructionRule(BaseRule):
    rule_id = "layering-middleware-construction"
    description = (
        "storage middleware and the simulated disk are constructed only "
        "by the StorageSpec builder modules"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro") or ctx.module in DEVICE_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in MIDDLEWARE_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name} constructed outside the device-stack "
                    f"builder; declare a StorageSpec (or extend "
                    f"StorageSpec.build) instead",
                )
