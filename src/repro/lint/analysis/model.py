"""The whole-program project model behind the deep analyzers.

The per-file rule packs see one :class:`~repro.lint.engine.FileContext`
at a time; the questions PR 10 asks — which attributes does this lock
actually guard, can a bare ``ValueError`` escape a public storage
entry point — need the whole tree at once.  The lint pass
(:func:`repro.lint.analysis.lint_tree`) parses every file once; :func:`summarize` reduces each parsed
:class:`~repro.lint.engine.FileContext` to a compact
:class:`ModuleSummary`, and :class:`ProjectModel` assembles the
cross-file indexes the analyzers share:

* a **class index** (methods, ``self.*`` accesses with the lockset
  held at each access, lock attributes, inferred attribute types),
* a **call graph** (``self.m()`` / ``self._attr.m()`` / same-module
  function calls, resolved best-effort),
* the **metric and schema registration sites** the drift checker
  diffs against the documentation catalogues.

Everything here is deliberately an over-approximation: the summaries
record what *may* happen (an access may run unguarded, a raise may
escape), and the analyzers report on the may-facts.  That is
the right polarity for contracts — a false alarm gets a justified
suppression; a missed race gets a pager.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.engine import FileContext

__all__ = [
    "Access",
    "CallSite",
    "ClassSummary",
    "FuncSummary",
    "MetricSite",
    "ModuleSummary",
    "ProjectModel",
    "RaiseSite",
    "summarize",
]

#: ``_lock`` / ``_update_lock`` / ... — the lock-naming contract.
_LOCK_NAME_RE = re.compile(r"^_(?:[a-z0-9]+_)*lock$")

#: ``repro.replay/v1``-style schema identifiers.
SCHEMA_RE = re.compile(r"\brepro\.[a-z0-9_.]+/v[0-9]+\b")

#: Metric-registry entry points (module functions and registry/obs
#: method forms).  ``span`` sites register ``<name>.seconds``
#: histograms on exit.
_METRIC_CALLS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "obs_counter": "counter",
    "obs_gauge": "gauge",
    "obs_histogram": "histogram",
}
_SPAN_CALLS = {"span"}

#: Container-mutating method names: ``self._x.append(...)`` counts as a
#: write to ``_x`` for race purposes.
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popleft", "popitem", "remove", "setdefault",
        "update",
    }
)


@dataclass(frozen=True)
class Access:
    """One ``self.<path>`` read or mutation, with the locks held."""

    path: str          # dotted attribute path from self, e.g. "_block_norms"
    kind: str          # "read" | "write"
    line: int
    locks: tuple[str, ...]  # lock paths held at the access site


@dataclass(frozen=True)
class CallSite:
    """One call whose target the analyzers may resolve.

    ``target`` shapes: ``("self", method)``, ``("selfattr", attr,
    method)``, ``("name", func)``, ``("mod", alias, func)``.
    """

    target: tuple[str, ...]
    line: int
    locks: tuple[str, ...]


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise Name(...)`` statement."""

    exc: str
    line: int


@dataclass(frozen=True)
class MetricSite:
    """One metric registration; ``<>`` segments mark dynamic parts."""

    kind: str   # counter | gauge | histogram
    name: str   # literal name, or pattern with <> placeholders
    line: int

    @property
    def is_pattern(self) -> bool:
        """Whether part of the name is computed at runtime."""
        return "<" in self.name


@dataclass
class FuncSummary:
    """One function or method, reduced to analyzer-relevant facts."""

    name: str
    line: int
    accesses: list[Access] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)

    @property
    def public(self) -> bool:
        """Whether outside callers may invoke this directly."""
        return not self.name.startswith("_") or (
            self.name.startswith("__") and self.name.endswith("__")
        )


@dataclass
class ClassSummary:
    """One class: methods, lock creations, inferred attribute types."""

    name: str
    line: int
    methods: dict[str, FuncSummary] = field(default_factory=dict)
    #: attributes assigned a lock (``Lock()`` / ``watched_lock(...)``).
    lock_attrs: set[str] = field(default_factory=set)
    #: self attribute -> class name it was constructed from.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the deep analyzers need from one parsed file."""

    path: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FuncSummary] = field(default_factory=dict)
    metrics: list[MetricSite] = field(default_factory=list)
    schemas: list[tuple[str, int]] = field(default_factory=list)


# -- extraction -------------------------------------------------------------


def _self_lock_path(node: ast.expr) -> str | None:
    """``self._lock`` / ``self.engine._update_lock`` -> dotted lock path."""
    if not (isinstance(node, ast.Attribute)
            and _LOCK_NAME_RE.match(node.attr)):
        return None
    parts = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name) and value.id == "self":
        return ".".join(reversed(parts))
    return None


def _self_attr_path(node: ast.expr) -> str | None:
    """``self.a.b`` -> ``"a.b"``; ``None`` for non-self chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _call_target(node: ast.Call) -> tuple[str, ...] | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "self":
                return ("self", func.attr)
            return ("mod", value.id, func.attr)
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            return ("selfattr", value.attr, func.attr)
        return None
    if isinstance(func, ast.Name):
        return ("name", func.id)
    return None


def _metric_name(arg: ast.expr) -> str | None:
    """Literal or ``<>``-patterned metric name from a call's first arg.

    Handles plain strings, f-strings (formatted fields become ``<>``),
    and ``+`` concatenations.  Fully-dynamic names (no literal part at
    all) come back as ``"<>"``.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("<>")
        return "".join(parts)
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        left = _metric_name(arg.left)
        right = _metric_name(arg.right)
        if left is not None or right is not None:
            return (left or "<>") + (right or "<>")
        return None
    if isinstance(arg, (ast.Name, ast.Attribute)):
        return "<>"
    return None


class _FuncExtractor:
    """Walks one function body tracking the held-lock stack."""

    def __init__(self, fn: FuncSummary) -> None:
        self.fn = fn
        self.locks: list[str] = []

    def held(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.locks))

    def walk_body(self, stmts) -> None:
        for stmt in stmts:
            self.visit(stmt)

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return  # nested defs run later, outside this lockset
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = []
            for item in node.items:
                path = _self_lock_path(item.context_expr)
                if path is not None:
                    acquired.append(path)
                else:
                    self.visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.visit_expr(item.optional_vars)
            self.locks.extend(acquired)
            self.walk_body(node.body)
            if acquired:
                del self.locks[len(self.locks) - len(acquired):]
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self.visit_target(target)
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.AugAssign):
            self.visit_target(node.target)
            self.visit_expr(node.target)  # aug targets are read too
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.AnnAssign):
            self.visit_target(node.target)
            if node.value is not None:
                self.visit_expr(node.value)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self.visit_target(target)
            return
        if isinstance(node, ast.Raise):
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name is not None:
                self.fn.raises.append(RaiseSite(name, node.lineno))
            for child in ast.iter_child_nodes(node):
                self.visit_expr(child)
            return
        # Generic statement: expressions inside get expression handling,
        # nested statements recurse.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.visit(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self.visit(sub)
                    elif isinstance(sub, ast.expr):
                        self.visit_expr(sub)

    def visit_target(self, node: ast.expr) -> None:
        """An assignment/delete target: find the mutated self-path."""
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self.visit_target(elt)
            return
        if isinstance(node, ast.Starred):
            self.visit_target(node.value)
            return
        base = node
        sliced = False
        while isinstance(base, ast.Subscript):
            self.visit_expr(base.slice)
            base = base.value
            sliced = True
        path = _self_attr_path(base)
        if path is not None:
            self.fn.accesses.append(
                Access(path, "write", node.lineno, self.held())
            )
            if sliced:
                # `self._x[k] = v` also reads the container binding.
                self.fn.accesses.append(
                    Access(path, "read", node.lineno, self.held())
                )
        else:
            self.visit_expr(base)

    def visit_expr(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            target = _call_target(node)
            if target is not None:
                self.fn.calls.append(
                    CallSite(target, node.lineno, self.held())
                )
            # `self._x.append(...)` mutates the container behind _x.
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS):
                path = _self_attr_path(func.value)
                if path is not None:
                    self.fn.accesses.append(
                        Access(path, "write", node.lineno, self.held())
                    )
            for child in ast.iter_child_nodes(node):
                if child is not func or not isinstance(
                    func, (ast.Name, ast.Attribute)
                ):
                    self.visit_expr(child)
                elif isinstance(func, ast.Attribute):
                    self.visit_expr(func.value)
            return
        if isinstance(node, ast.Attribute):
            path = _self_attr_path(node)
            if path is not None:
                self.fn.accesses.append(
                    Access(path, "read", node.lineno, self.held())
                )
                return
            self.visit_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.visit_expr(child)
            elif isinstance(child, ast.stmt):
                self.visit(child)
            elif isinstance(child, ast.comprehension):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self.visit_expr(sub)


_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "watched_lock", "watched_rlock"}
)


def _extract_class(node: ast.ClassDef) -> ClassSummary:
    cls = ClassSummary(name=node.name, line=node.lineno)
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fn = FuncSummary(name=item.name, line=item.lineno)
        _FuncExtractor(fn).walk_body(item.body)
        cls.methods[item.name] = fn
        # Lock creations and attribute types come from simple
        # `self.x = Ctor(...)` assignments anywhere in the class.
        for stmt in ast.walk(item):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            ctor = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if ctor is None:
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                if ctor in _LOCK_CONSTRUCTORS:
                    cls.lock_attrs.add(attr)
                elif ctor[:1].isupper():
                    cls.attr_types[attr] = ctor
    return cls


def summarize(ctx: FileContext) -> ModuleSummary:
    """Reduce one parsed file to its analyzer-relevant summary."""
    summary = ModuleSummary(path=ctx.path, module=ctx.module)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports[alias.asname
                                or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module:
                for alias in node.names:
                    summary.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _extract_class(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FuncSummary(name=node.name, line=node.lineno)
            _FuncExtractor(fn).walk_body(node.body)
            summary.functions[node.name] = fn
    # Metric registration sites (the obs package itself is plumbing
    # that re-emits caller-supplied names; its sites are not
    # registrations).
    if not ctx.in_package("repro.obs"):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            fname = (func.id if isinstance(func, ast.Name)
                     else func.attr if isinstance(func, ast.Attribute)
                     else None)
            if fname in _METRIC_CALLS:
                name = _metric_name(node.args[0])
                if name is not None:
                    summary.metrics.append(
                        MetricSite(_METRIC_CALLS[fname], name,
                                   node.lineno)
                    )
            elif fname in _SPAN_CALLS:
                name = _metric_name(node.args[0])
                if name is not None:
                    summary.metrics.append(
                        MetricSite("histogram", name + ".seconds",
                                   node.lineno)
                    )
    for lineno, text in enumerate(ctx.lines, start=1):
        for match in SCHEMA_RE.finditer(text):
            summary.schemas.append((match.group(0), lineno))
    return summary


@dataclass
class ProjectModel:
    """The parsed project: summaries plus the cross-file indexes."""

    root: str
    summaries: dict[str, ModuleSummary]  # path -> summary
    #: class name -> (path, ClassSummary); single winner per name (the
    #: tree keeps class names unique; collisions keep the first, which
    #: the analyzers tolerate as an over-approximation).
    class_index: dict[str, tuple[str, ClassSummary]] = field(
        default_factory=dict
    )

    def build_indexes(self) -> None:
        """(Re)derive the class index from the summaries."""
        self.class_index.clear()
        for path in sorted(self.summaries):
            for name, cls in self.summaries[path].classes.items():
                self.class_index.setdefault(name, (path, cls))

    def modules(self) -> list[ModuleSummary]:
        """Summaries in stable path order."""
        return [self.summaries[p] for p in sorted(self.summaries)]

    def find_class(self, name: str) -> ClassSummary | None:
        """Look a class up by bare name (best-effort, first winner)."""
        entry = self.class_index.get(name)
        return entry[1] if entry else None

    def class_path(self, name: str) -> str | None:
        """The file a class was defined in."""
        entry = self.class_index.get(name)
        return entry[0] if entry else None

