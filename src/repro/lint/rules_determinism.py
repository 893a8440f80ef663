"""Determinism rules: every random draw in the library is seeded, and
every float reduction on the query, insert and populate paths has one
order.

The benchmark suite's claims (EXPERIMENTS.md) are reproducible only
because every stochastic component draws from an explicitly seeded
generator — ``np.random.default_rng(seed)`` or ``random.Random(seed)``.
``determinism-seeded-rng`` bans the global-state alternatives inside
``src/repro``: module-level ``np.random.*`` convenience functions,
module-level ``random.*`` draws (whether called as ``random.shuffle``
or imported bare via ``from random import shuffle``), unseeded
``default_rng()`` / ``Random()``, ``SystemRandom`` (unseedable by
design), and wall-clock seeds — ``Random(time.time())`` is just the
hidden global RNG with extra steps: two runs never share a seed.

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
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = ["ReductionOrderRule", "SeededRngRule"]

#: ``np.random`` members that are fine: seeded-generator entry points.
NP_RANDOM_ALLOWED = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox",
     "default_rng"}
)

#: ``random``-module draw functions that mutate the hidden global RNG.
RANDOM_MODULE_DRAWS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)


#: ``time``-module readings that make a run-unique (irreproducible) seed.
WALL_CLOCK_FNS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns"}
)


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


@register
class SeededRngRule(BaseRule):
    rule_id = "determinism-seeded-rng"
    severity = "error"
    description = (
        "library code draws randomness from seeded generators only "
        "(np.random.default_rng(seed) / random.Random(seed))"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro"):
            return
        imports = _imported_names(ctx.tree)
        from_imports = _from_imported(ctx.tree)
        numpy_aliases = {
            alias for alias, mod in imports.items() if mod == "numpy"
        }
        random_aliases = {
            alias for alias, mod in imports.items() if mod == "random"
        }
        time_aliases = {
            alias for alias, mod in imports.items() if mod == "time"
        }
        # Bare names that are really random-module draws / constructors
        # or time readings (``from random import shuffle``).
        bare_draws = {
            alias for alias, (mod, name) in from_imports.items()
            if mod == "random" and name in RANDOM_MODULE_DRAWS
        }
        bare_ctors = {
            alias: name for alias, (mod, name) in from_imports.items()
            if (mod == "random" and name in ("Random", "SystemRandom"))
            or (mod == "numpy.random" and name == "default_rng")
        }
        bare_clocks = {
            alias for alias, (mod, name) in from_imports.items()
            if mod == "time" and name in WALL_CLOCK_FNS
        }

        def is_wall_clock(expr: ast.expr) -> bool:
            # int(time.time()) seeds are as irreproducible as the raw
            # float; unwrap the cast.
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Name)
                    and expr.func.id == "int" and len(expr.args) == 1):
                return is_wall_clock(expr.args[0])
            if not isinstance(expr, ast.Call):
                return False
            fn = expr.func
            if (isinstance(fn, ast.Attribute)
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in time_aliases
                    and fn.attr in WALL_CLOCK_FNS):
                return True
            return isinstance(fn, ast.Name) and fn.id in bare_clocks

        def seed_args(node: ast.Call) -> list[ast.expr]:
            args = list(node.args[:1])
            args.extend(
                kw.value for kw in node.keywords if kw.arg == "seed"
            )
            return args

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in bare_draws:
                    _, origin = from_imports[func.id]
                    yield self.finding(
                        ctx,
                        node,
                        f"{func.id}() is random.{origin} imported "
                        f"bare; it draws from the hidden global RNG — "
                        f"use a seeded random.Random(seed) instead",
                    )
                elif func.id in bare_ctors:
                    origin = bare_ctors[func.id]
                    if origin == "SystemRandom":
                        yield self.finding(
                            ctx,
                            node,
                            "random.SystemRandom is unseedable; "
                            "benchmarks cannot replay its draws",
                        )
                    elif not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            f"{origin}() without a seed; pass an "
                            f"explicit seed for reproducible runs",
                        )
                    elif any(is_wall_clock(a) for a in seed_args(node)):
                        yield self.finding(
                            ctx,
                            node,
                            f"{origin}() seeded from the wall clock; "
                            f"two runs never share a seed — use a "
                            f"fixed or configured seed",
                        )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            # <anything>.seed(time.time()) re-seeds a generator from
            # the clock, defeating replay no matter how it was built.
            if func.attr == "seed" and any(
                is_wall_clock(a) for a in seed_args(node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "seed(...) from the wall clock; two runs never "
                    "share a seed — use a fixed or configured seed",
                )
                continue
            value = func.value
            # np.random.<fn>(...)
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy_aliases
            ):
                if func.attr == "default_rng":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "np.random.default_rng() without a seed; "
                            "pass an explicit seed for reproducible runs",
                        )
                    elif any(is_wall_clock(a) for a in seed_args(node)):
                        yield self.finding(
                            ctx,
                            node,
                            "np.random.default_rng() seeded from the "
                            "wall clock; two runs never share a seed — "
                            "use a fixed or configured seed",
                        )
                elif func.attr not in NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{func.attr}() uses numpy's hidden "
                        f"global RNG; draw from a seeded "
                        f"np.random.default_rng(seed) instead",
                    )
            # random.<fn>(...)
            elif (
                isinstance(value, ast.Name) and value.id in random_aliases
            ):
                if func.attr in RANDOM_MODULE_DRAWS:
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{func.attr}() uses the hidden global "
                        f"RNG; draw from a seeded random.Random(seed) "
                        f"instead",
                    )
                elif func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "random.Random() without a seed; pass an "
                            "explicit seed for reproducible runs",
                        )
                    elif any(is_wall_clock(a) for a in seed_args(node)):
                        yield self.finding(
                            ctx,
                            node,
                            "random.Random() seeded from the wall "
                            "clock; two runs never share a seed — use "
                            "a fixed or configured seed",
                        )
                elif func.attr == "SystemRandom":
                    yield self.finding(
                        ctx,
                        node,
                        "random.SystemRandom is unseedable; benchmarks "
                        "cannot replay its draws",
                    )


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
    severity = "error"
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
