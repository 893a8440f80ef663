"""Concurrency rules: the lock discipline from the ARCHITECTURE docs.

The concurrency model (PR 2/PR 4) rests on three habits, now checked:

* ``lock-no-blocking`` — a ``with self._lock:`` body must be short and
  CPU-only: no ``time.sleep`` / ``wait`` / file or network I/O, no
  callback invocation an agent outside the class can observe, and no
  call into ``self.inner`` (a device layer must never hold its lock
  across the layer below — the rule that keeps simulated seek time and
  retry storms outside every critical section).  ``wait`` / ``notify``
  on a ``threading.Condition`` built over the held lock are allowed.
* ``lock-with-only`` — locks are held via ``with``, never via bare
  ``acquire()``/``release()`` pairs that leak on an early raise.
* ``lock-naming`` — every ``threading.Lock``/``RLock`` (or
  :func:`~repro.lint.lockwatch.watched_lock`) attribute is named
  ``_lock`` or ``_<something>_lock``, so both the static rules and the
  runtime lock-order watcher can recognize critical sections by name.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = [
    "LockWithOnlyRule",
    "LockBlockingRule",
    "LockNamingRule",
    "lock_name",
]

#: ``_lock``, ``_cache_lock``, ``_graph_lock``, ...
_LOCK_NAME_RE = re.compile(r"^_(?:[a-z0-9]+_)*lock$")

#: Call targets that block (or can block) the calling thread.
BLOCKING_CALL_NAMES = frozenset(
    {"sleep", "wait", "acquire", "open", "urlopen", "recv", "accept",
     "select", "result"}
)

#: Callback-ish call targets an outside agent observes mid-critical-section.
CALLBACK_CALL_NAMES = frozenset({"emit", "_emit", "callback", "notify"})

#: Constructors that produce a lock object.
LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "watched_lock", "watched_rlock"}
)


def lock_name(node: ast.expr) -> str | None:
    """The lock-ish terminal name of an expression, or ``None``.

    Recognizes ``self._lock``, ``obj._cache_lock``, and bare ``_lock``
    names — the naming contract ``lock-naming`` enforces.
    """
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if _LOCK_NAME_RE.match(name) else None


def _terminal_call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_inner_call(node: ast.Call) -> bool:
    """``self.inner.<anything>(...)`` — a call into the layer below."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    value = func.value
    return isinstance(value, ast.Attribute) and value.attr == "inner"


def _walk_lock_body(body):
    """Walk statements executed while the lock is held, skipping nested
    function/class definitions (those run later, lock not held)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class LockBlockingRule(BaseRule):
    rule_id = "lock-no-blocking"
    description = (
        "no sleeping, blocking I/O, callback invocation, or calls into "
        "self.inner while holding a lock"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro"):
            return
        # (attr, lock) of every ``self.attr = threading.Condition(lock)``.
        conditions = {
            (getattr(target, "attr", None), lock_name(node.value.args[0]))
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and node.value.args
            and _terminal_call_name(node.value) == "Condition"
            for target in node.targets
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            held = [
                name
                for item in node.items
                if (name := lock_name(item.context_expr)) is not None
            ]
            if not held:
                continue
            for stmt in _walk_lock_body(node.body):
                if not isinstance(stmt, ast.Call):
                    continue
                name = _terminal_call_name(stmt)
                receiver = getattr(getattr(stmt.func, "value", None), "attr", None)
                if name in ("wait", "notify", "notify_all") and receiver and any(
                    (receiver, lock) in conditions for lock in held
                ):
                    continue
                if _is_inner_call(stmt):
                    yield self.finding(
                        ctx,
                        stmt,
                        f"call into self.inner while holding "
                        f"{held[0]!r}; device layers release their lock "
                        f"before descending the stack",
                    )
                elif name in BLOCKING_CALL_NAMES:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"blocking call {name!r} inside a "
                        f"`with {held[0]}:` body",
                    )
                elif name in CALLBACK_CALL_NAMES or (
                    name is not None and name.startswith("on_")
                ):
                    yield self.finding(
                        ctx,
                        stmt,
                        f"callback {name!r} invoked while holding "
                        f"{held[0]!r}; deliver outside the critical "
                        f"section",
                    )


@register
class LockWithOnlyRule(BaseRule):
    rule_id = "lock-with-only"
    description = (
        "locks are acquired via `with`, never bare acquire()/release()"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("acquire", "release"):
                continue
            name = lock_name(func.value)
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"bare {name}.{func.attr}(); use `with {name}:` so "
                    f"an early raise cannot leak the lock",
                )


@register
class LockNamingRule(BaseRule):
    rule_id = "lock-naming"
    description = (
        "lock attributes are named _lock or _*_lock so critical "
        "sections are recognizable"
    )

    def _lock_ctor(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        name = _terminal_call_name(value)
        return name if name in LOCK_CONSTRUCTORS else None

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            ctor = self._lock_ctor(value)
            if ctor is None:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    name = target.attr
                elif isinstance(target, ast.Name):
                    name = target.id
                else:
                    continue
                if not _LOCK_NAME_RE.match(name):
                    yield self.finding(
                        ctx,
                        node,
                        f"{ctor}() assigned to {name!r}; lock "
                        f"attributes must be named _lock or _*_lock",
                    )
