"""The AST-walking rule engine behind ``aims lint``.

The repo's architectural contracts — layering, lock discipline, seeded
randomness, observability coverage — used to live in one grep-based
meta-test and in reviewers' heads.  This engine makes them first-class:
each contract is a :class:`Rule` over a parsed :class:`FileContext`,
producing :class:`Finding` records that the CLI renders as text or JSON
and CI gates on.

Suppression is per line: a ``# lint: ignore[rule-id]`` comment (with a
trailing justification) silences that rule on that line, and
``# lint: ignore-file[rule-id]`` anywhere in a file silences it for the
whole file.  The same table filters the deep analyzers' findings
(:func:`repro.lint.analysis.lint_tree`), so a suppression is one
deliberate, visible decision whichever check it answers.

Rule implementations live in the ``rules_*`` sibling modules and
self-register via :func:`register`; the engine itself knows nothing
about any specific invariant.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from repro.core.errors import AIMSError

__all__ = [
    "BaseRule",
    "Finding",
    "FileContext",
    "LintEngine",
    "LintError",
    "Rule",
    "all_rules",
    "get_rule",
    "parse",
    "register",
    "repo_root",
]

#: Finding severities, most severe first.  Only ``error`` findings make
#: ``aims lint`` exit non-zero; ``warning`` findings are advisory.
SEVERITIES = ("error", "warning")

#: Rule id reserved for files the engine cannot parse.
PARSE_ERROR_RULE = "parse-error"


class LintError(AIMSError):
    """A lint run that cannot proceed (unknown rule id, bad severity,
    no source tree to lint)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    file: str
    line: int
    rule_id: str
    severity: str
    message: str

    def format(self) -> str:
        """The one-line human rendering: ``file:line: [rule] message``."""
        return (
            f"{self.file}:{self.line}: {self.severity}: "
            f"[{self.rule_id}] {self.message}"
        )

    def as_dict(self) -> dict:
        """JSON-exporter form."""
        return {
            "file": self.file,
            "line": self.line,
            "rule_id": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(ignore|ignore-file)\[([a-z0-9_*,\s\-]+)\]"
)


class FileContext:
    """One parsed source file, as the rules see it.

    Carries the repo-relative path, the derived dotted module name
    (``src/repro/storage/device.py`` -> ``repro.storage.device``), the
    source lines, the parsed AST, and the suppression table.  Files that
    do not live under ``src/`` get an empty module name, which scoped
    rules treat as "not part of the library" and skip.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = Path(path).as_posix()
        self.lines = source.splitlines()
        self.module = self._module_name(self.path)
        self.tree = ast.parse(source, filename=self.path)
        self._line_ignores: dict[int, set[str]] = {}
        self._file_ignores: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(2).split(",")}
            ids.discard("")
            if match.group(1) == "ignore-file":
                self._file_ignores |= ids
            else:
                self._line_ignores.setdefault(lineno, set()).update(ids)

    @staticmethod
    def _module_name(path: str) -> str:
        parts = Path(path).parts
        if "src" not in parts:
            return ""
        rel = parts[parts.index("src") + 1 :]
        if not rel or not rel[-1].endswith(".py"):
            return ""
        rel = rel[:-1] + (rel[-1][: -len(".py")],)
        if rel[-1] == "__init__":
            rel = rel[:-1]
        return ".".join(rel)

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file's module sits under any dotted prefix."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is silenced at ``line`` (or file-wide)."""
        ids = self._line_ignores.get(line, set()) | self._file_ignores
        return rule_id in ids or "*" in ids


@runtime_checkable
class Rule(Protocol):
    """What every lint rule provides: identity, severity, and a checker."""

    rule_id: str
    severity: str
    description: str

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        ...


class BaseRule:
    """Convenience base: carries the metadata, builds findings."""

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        """A finding anchored at an AST node (or a bare line number)."""
        line = node if isinstance(node, int) else node.lineno
        return Finding(
            file=ctx.path,
            line=line,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate a rule and add it to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise LintError(f"rule {cls.__name__} has no rule_id")
    if rule.severity not in SEVERITIES:
        raise LintError(
            f"rule {rule.rule_id}: severity must be one of {SEVERITIES}, "
            f"got {rule.severity!r}"
        )
    if rule.rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def _load_rule_packs() -> None:
    # Importing the packs populates the registry; the engine module
    # itself stays invariant-agnostic.
    from repro.lint import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_layering,
        rules_observability,
    )


def all_rules() -> list[Rule]:
    """Every registered rule, id-ordered."""
    _load_rule_packs()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look one rule up by id."""
    _load_rule_packs()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(
            f"unknown rule id {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def parse(path: str, source: str) -> FileContext | Finding:
    """Parse one file, or say why it cannot be parsed.

    The one ``parse-error`` emitter: a file that does not parse is a
    finding, not a crash, and no other check sees it.
    """
    try:
        return FileContext(path, source)
    except SyntaxError as exc:
        return Finding(
            file=Path(path).as_posix(),
            line=exc.lineno or 1,
            rule_id=PARSE_ERROR_RULE,
            severity="error",
            message=f"file does not parse: {exc.msg}",
        )


class LintEngine:
    """Runs a rule set over parsed files or source text."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        self.rules: list[Rule] = (
            list(rules) if rules is not None else all_rules()
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        """Every unsuppressed finding of the rule set in one file."""
        return [
            f
            for rule in self.rules
            for f in rule.check(ctx)
            if not ctx.is_suppressed(f.line, f.rule_id)
        ]

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one source string presented as living at ``path``.

        ``path`` drives module-scoped rules, so tests can present fixture
        snippets as any module they like (``src/repro/query/fake.py``).
        """
        ctx = parse(path, source)
        if isinstance(ctx, Finding):
            return [ctx]
        return sorted(self.check(ctx))


def repo_root() -> Path:
    """The repository root this installed tree lives in."""
    return Path(__file__).resolve().parents[3]
