"""Deep lockset analysis: attributes written both under and outside a
class's locks.

``deep-lockset-race``: for every class that creates a ``_lock``-named
attribute, infer per-method which ``self.*`` attributes are mutated
inside vs. outside ``with self._lock``, propagating lock context
through intra-class calls (a private helper called only under the lock
*is* guarded).  An attribute mutated on both sides is a lost-update
candidate — exactly the writer race ``ProPolyneEngine.insert`` once
had, fixed by routing the scalar path under
``watched_lock("query.engine_update")``.

Lock *order* is not checked here: the ``REPRO_LOCKWATCH=1`` suite run
records the nesting order of every watched lock the tests execute and
fails on a cycle (``repro.lint.lockwatch``, ``tests/conftest.py``).

The analysis is a may-analysis: it over-approximates (a reported race
may be protected by an external invariant), and deliberate exceptions
get a justified inline suppression, same as every per-file rule.
"""

from __future__ import annotations

from repro.lint.analysis.model import ClassSummary, ModuleSummary, ProjectModel
from repro.lint.engine import Finding

__all__ = ["LocksetRaceAnalyzer"]

#: Methods whose writes are construction, not concurrency: the object
#: is not yet published to other threads.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__init_subclass__",
     "__set_name__"}
)

#: Cap on distinct entry locksets tracked per method; beyond this the
#: analysis keeps the smallest (most race-prone) contexts.
_MAX_CONTEXTS = 8


def _entry_contexts(cls: ClassSummary) -> dict[str, set[frozenset[str]]]:
    """Fixpoint: for each method, the locksets it may be entered under.

    Public methods are assumed callable with no locks held; private
    helpers inherit the contexts of their intra-class callers, plus
    whatever the caller holds at the call site.
    """
    contexts: dict[str, set[frozenset[str]]] = {
        name: set() for name in cls.methods
    }
    work: list[tuple[str, frozenset[str]]] = []
    for name, fn in cls.methods.items():
        if name in _CONSTRUCTION_METHODS:
            continue
        if fn.public:
            contexts[name].add(frozenset())
            work.append((name, frozenset()))
    while work:
        name, ctx = work.pop()
        fn = cls.methods[name]
        for call in fn.calls:
            if call.target[0] != "self":
                continue
            callee = call.target[1]
            if callee not in cls.methods:
                continue
            if callee in _CONSTRUCTION_METHODS:
                continue
            new_ctx = ctx | frozenset(call.locks)
            bucket = contexts[callee]
            if new_ctx in bucket:
                continue
            if len(bucket) >= _MAX_CONTEXTS:
                continue
            bucket.add(new_ctx)
            work.append((callee, new_ctx))
    return contexts


class LocksetRaceAnalyzer:
    """Flag attributes mutated both under and outside a class's locks."""

    rule_id = "deep-lockset-race"
    description = (
        "an attribute of a lock-owning class is mutated both inside "
        "and outside its critical sections (lost-update candidate)"
    )

    def analyze(self, project: ProjectModel) -> list[Finding]:
        """Yield one finding per racy attribute, anchored at the
        unguarded mutation site."""
        findings: list[Finding] = []
        for summary in project.modules():
            for cls in summary.classes.values():
                if not cls.lock_attrs:
                    continue
                findings.extend(self._check_class(summary, cls))
        return findings

    def _check_class(
        self, summary: ModuleSummary, cls: ClassSummary
    ) -> list[Finding]:
        contexts = _entry_contexts(cls)
        # attr path -> list of (line, effective lockset, method)
        writes: dict[str, list[tuple[int, frozenset[str], str]]] = {}
        for name, fn in cls.methods.items():
            if name in _CONSTRUCTION_METHODS:
                continue
            for access in fn.accesses:
                if access.kind != "write":
                    continue
                if access.path in cls.lock_attrs:
                    continue
                site_locks = frozenset(access.locks)
                for ctx in contexts[name]:
                    writes.setdefault(access.path, []).append(
                        (access.line, ctx | site_locks, name)
                    )
        findings = []
        for path in sorted(writes):
            events = writes[path]
            guarded = [e for e in events if e[1]]
            unguarded = [e for e in events if not e[1]]
            if not guarded or not unguarded:
                continue
            g_line, g_locks, g_method = min(guarded)
            u_line, _, u_method = min(unguarded)
            lock_names = "/".join(sorted(g_locks))
            findings.append(
                Finding(
                    file=summary.path,
                    line=u_line,
                    rule_id=self.rule_id,
                    message=(
                        f"{cls.name}.{u_method} mutates self.{path} "
                        f"with no lock held, but {cls.name}.{g_method} "
                        f"mutates it under {lock_names} (line {g_line}); "
                        f"concurrent callers can lose updates"
                    ),
                )
            )
        return findings

