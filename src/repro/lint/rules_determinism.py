"""Determinism rule: every float reduction on the query, insert and
populate paths has one order.

``determinism-reduction`` keeps the pinned bits of every answer off
the machine: in ``repro.query``, ``repro.storage`` and
``repro.wavelets`` a float reduction goes through ``repro.core.reduce``,
never through BLAS (``np.dot`` and kin, ``np.tensordot``, ``np.vdot``,
``np.linalg.norm``, the ``@`` operator), whose kernel is chosen per
CPU, nor ``math.fsum``.  Two forms are out of a lint's reach: a float
builtin ``sum`` cannot be told from an integer one, so a tier-1 test
swaps the interpreter's ``sum`` in every module of those packages
instead; and a method ``x.dot(y)`` cannot be told from ndarray's BLAS
``dot`` without types (``SparseWaveletVector.dot`` is one such method),
so none is flagged and review keeps ndarray's out.

Seeded randomness (no global ``np.random.*`` or ``random.*`` draw, no
unseeded or unseedable generator) is a textual invariant, held by a
grep in CI's ``lint-invariants`` job.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = ["ReductionOrderRule"]


def _imported_names(tree: ast.AST) -> dict[str, str]:
    """Map of local alias -> the module it binds, for plain ``import``
    forms (``import numpy.linalg`` binds ``numpy``)."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                out[alias.asname or root] = alias.name if alias.asname else root
    return out


def _from_imported(tree: ast.AST) -> dict[str, tuple[str, str]]:
    """Map of local alias -> (module, name) for ``from m import n``."""
    out: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


#: Reducers whose order the machine or the library picks, by the dotted
#: name they resolve to through a file's imports.
ORDER_CHOOSING_REDUCERS = frozenset(
    {"numpy.dot", "numpy.vecdot", "numpy.vdot", "numpy.inner",
     "numpy.tensordot", "numpy.matmul", "numpy.einsum", "numpy.linalg.norm",
     "math.fsum"}
)


@register
class ReductionOrderRule(BaseRule):
    rule_id = "determinism-reduction"
    description = (
        "float reductions in repro.query / repro.storage / repro.wavelets "
        "go through repro.core.reduce (no BLAS, @ or math.fsum)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro.query", "repro.storage", "repro.wavelets"):
            return
        # Local name -> the dotted name an import binds it to.
        bindings = _imported_names(ctx.tree) | {
            alias: f"{mod}.{name}"
            for alias, (mod, name) in _from_imported(ctx.tree).items()
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                yield self.finding(
                    ctx,
                    node,
                    "`@` reduces through BLAS, whose kernel sets the last "
                    "bits; use repro.core.reduce.dot (np.ravel_multi_index "
                    "for integer strides)",
                )
            elif isinstance(node, ast.Call):
                parts = []
                func = node.func
                while isinstance(func, ast.Attribute):
                    parts.append(func.attr)
                    func = func.value
                if not isinstance(func, ast.Name) or func.id not in bindings:
                    continue
                name = ".".join([bindings[func.id], *reversed(parts)])
                if name in ORDER_CHOOSING_REDUCERS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() picks its own reduction order (a BLAS "
                        f"kernel per CPU, or correct rounding); reduce "
                        f"through repro.core.reduce so the bits hold on "
                        f"every machine",
                    )
