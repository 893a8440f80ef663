"""The AST-walking rule engine behind ``aims lint``.

The repo's architectural contracts — layering, lock discipline, one
reduction order, observability coverage — used to live in one
grep-based meta-test and in reviewers' heads.  This engine makes the
ones no grep can hold first-class: each contract is a :class:`BaseRule`
over a parsed :class:`FileContext`, producing :class:`Finding` records
that the CLI renders as text or JSON and CI gates on.  Every finding is
an error.

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
from typing import Iterable

from repro.core.errors import AIMSError

__all__ = [
    "BaseRule",
    "Finding",
    "FileContext",
    "LintEngine",
    "LintError",
    "Suppressions",
    "all_rules",
    "get_rule",
    "parse",
    "register",
    "repo_root",
]

#: Rule id reserved for files the engine cannot parse.
PARSE_ERROR_RULE = "parse-error"


class LintError(AIMSError):
    """A lint run that cannot proceed (unknown rule id, no source tree
    to lint)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location; every one is an error."""

    file: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The one-line human rendering: ``file:line: error: [rule] message``."""
        return f"{self.file}:{self.line}: error: [{self.rule_id}] {self.message}"

    def as_dict(self) -> dict:
        """JSON-exporter form (``repro.lint/v1`` keeps its severity key)."""
        return {
            "file": self.file,
            "line": self.line,
            "rule_id": self.rule_id,
            "severity": "error",
            "message": self.message,
        }


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(ignore|ignore-file)\[([a-z0-9_*,\s\-]+)\]"
)


class Suppressions:
    """One file's ``# lint: ignore`` table, kept apart from its AST so a
    whole-tree pass can hold every file's table without its tree."""

    def __init__(self, lines: list[str]) -> None:
        self._line_ignores: dict[int, set[str]] = {}
        self._file_ignores: set[str] = set()
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(2).split(",")}
            ids.discard("")
            if match.group(1) == "ignore-file":
                self._file_ignores |= ids
            else:
                self._line_ignores.setdefault(lineno, set()).update(ids)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is silenced at ``line`` (or file-wide)."""
        ids = self._line_ignores.get(line, set()) | self._file_ignores
        return rule_id in ids or "*" in ids


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
        self.suppressions = Suppressions(self.lines)

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
        return self.suppressions.is_suppressed(line, rule_id)


class BaseRule:
    """What every per-file rule is: an id, a description and a checker."""

    rule_id: str = ""
    description: str = ""

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        """A finding anchored at an AST node (or a bare line number)."""
        line = node if isinstance(node, int) else node.lineno
        return Finding(
            file=ctx.path,
            line=line,
            rule_id=self.rule_id,
            message=message,
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        raise NotImplementedError


_REGISTRY: dict[str, BaseRule] = {}


def register(cls):
    """Class decorator: instantiate a rule and add it to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise LintError(f"rule {cls.__name__} has no rule_id")
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


def all_rules() -> list[BaseRule]:
    """Every registered rule, id-ordered."""
    _load_rule_packs()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> BaseRule:
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
            message=f"file does not parse: {exc.msg}",
        )


class LintEngine:
    """Runs a rule set over parsed files or source text."""

    def __init__(self, rules: Iterable[BaseRule] | None = None) -> None:
        self.rules: list[BaseRule] = (
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
