"""Exception-contract checker: typed errors at subsystem boundaries.

The repo's error-handling convention (docs/ARCHITECTURE.md) is that
every failure surfacing from the library is an :class:`AIMSError`
subclass — that is what lets ``QueryService`` catch
``StorageUnavailable`` and degrade instead of crash, and what keeps
``except AIMSError`` a complete firewall for callers.

``deep-exception-contract`` enforces it across files: inside the
boundary packages (storage/query/streams/cluster), a
``raise ValueError(...)``-style bare builtin is flagged when it is
**reachable from a public entry point** — directly, or through private
helpers via the call graph.  Builtins that are protocol, not failure
(``NotImplementedError`` on abstract methods, ``StopIteration`` /
``StopAsyncIteration`` in iterators), are exempt.
"""

from __future__ import annotations

from repro.lint.analysis.model import (
    ClassSummary,
    FuncSummary,
    ModuleSummary,
    ProjectModel,
)
from repro.lint.engine import Finding

__all__ = ["BOUNDARY_PACKAGES", "ExceptionContractAnalyzer"]

#: Packages whose public entry points let only AIMSError subclasses
#: escape.
BOUNDARY_PACKAGES = (
    "repro.storage",
    "repro.query",
    "repro.streams",
    "repro.cluster",
)

#: Builtin exceptions that must not escape a boundary entry point.
BANNED_BUILTINS = frozenset(
    {
        "ArithmeticError", "AttributeError", "BaseException", "BufferError",
        "EOFError", "Exception", "FileExistsError", "FileNotFoundError",
        "IOError", "IndexError", "KeyError", "LookupError", "MemoryError",
        "NameError", "OSError", "OverflowError", "PermissionError",
        "RecursionError", "ReferenceError", "RuntimeError", "SystemError",
        "TimeoutError", "TypeError", "UnicodeError", "ValueError",
        "ZeroDivisionError",
    }
)


class ExceptionContractAnalyzer:
    """Flag builtin raises reachable from boundary entry points."""

    rule_id = "deep-exception-contract"
    description = (
        "public entry points in the boundary packages let only "
        "AIMSError subclasses escape; wrap builtin raises in a typed "
        "error"
    )

    _MAX_DEPTH = 12

    def analyze(self, project: ProjectModel) -> list[Finding]:
        """Yield one finding per offending raise site."""
        findings: list[Finding] = []
        for summary in project.modules():
            if not self._in_boundary(summary.module):
                continue
            findings.extend(self._check_module(project, summary))
        return findings

    @staticmethod
    def _in_boundary(module: str) -> bool:
        return any(
            module == p or module.startswith(p + ".")
            for p in BOUNDARY_PACKAGES
        )

    def _check_module(self, project: ProjectModel,
                      summary: ModuleSummary) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple[str, int]] = set()

        def flag(mod: ModuleSummary, fn: FuncSummary, entry: str) -> None:
            for site in fn.raises:
                if site.exc not in BANNED_BUILTINS:
                    continue
                # A name shadowed by an import or a module-level class
                # is not the builtin (typed wrappers come in this way).
                if site.exc in mod.imports or site.exc in mod.classes:
                    continue
                key = (mod.path, site.line)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        file=mod.path,
                        line=site.line,
                        rule_id=self.rule_id,
                        message=(
                            f"raise {site.exc} can escape public entry "
                            f"point {entry}; raise an AIMSError "
                            f"subclass (repro.core.errors) so callers' "
                            f"typed firewalls hold"
                        ),
                    )
                )

        for cls in summary.classes.values():
            if cls.name.startswith("_"):
                continue
            for name, fn in cls.methods.items():
                if not fn.public:
                    continue
                entry = f"{summary.module}.{cls.name}.{name}"
                for mod, reached in self._closure(project, summary, cls, fn):
                    flag(mod, reached, entry)
        for name, fn in summary.functions.items():
            if name.startswith("_"):
                continue
            entry = f"{summary.module}.{name}"
            for mod, reached in self._closure(project, summary, None, fn):
                flag(mod, reached, entry)
        return findings

    def _closure(self, project: ProjectModel, summary: ModuleSummary,
                 cls: ClassSummary | None,
                 fn: FuncSummary) -> list[tuple[ModuleSummary, FuncSummary]]:
        """``fn`` plus every function reachable through resolvable
        calls (bounded, cycle-safe), with its defining module."""
        out: list[tuple[ModuleSummary, FuncSummary]] = []
        seen: set[int] = set()
        stack: list[tuple[ClassSummary | None, ModuleSummary,
                          FuncSummary, int]] = [(cls, summary, fn, 0)]
        while stack:
            owner, mod, cur, depth = stack.pop()
            if id(cur) in seen or depth > self._MAX_DEPTH:
                continue
            seen.add(id(cur))
            out.append((mod, cur))
            for call in cur.calls:
                nxt = self._resolve(project, mod, owner, call.target)
                if nxt is not None:
                    stack.append((*nxt, depth + 1))
        return out

    @staticmethod
    def _resolve(project: ProjectModel, summary: ModuleSummary,
                 cls: ClassSummary | None, target: tuple[str, ...]):
        if target[0] == "self" and cls is not None:
            callee = cls.methods.get(target[1])
            if callee is not None:
                return cls, summary, callee
            return None
        if target[0] == "selfattr" and cls is not None:
            owner_name = cls.attr_types.get(target[1])
            if owner_name:
                owner = project.find_class(owner_name)
                path = project.class_path(owner_name)
                if owner is not None and target[2] in owner.methods:
                    return (owner, project.summaries[path],
                            owner.methods[target[2]])
            return None
        if target[0] == "name":
            callee = summary.functions.get(target[1])
            if callee is not None:
                return None, summary, callee
        return None
