"""Metric- and schema-catalogue drift checker.

DESIGN.md and docs/OPERATIONS.md carry the metric-name catalogue —
"the single source of truth for dashboards and assertions" — and
docs/REPLAY.md specifies the ``repro.*/v1`` wire schemas.  Until PR 10
the catalogues were prose: nothing failed when a new ``counter(...)``
site shipped undocumented, or when a doc row outlived the series it
described.  The provenance line of work this repo follows (Bernstetter
et al., PAPERS.md) treats observable names as API: they must be
documented and stable.

``deep-metric-drift`` extracts every registration site from the
project model (``counter(``/``gauge(``/``histogram(`` plus ``span``
sites, which register ``<name>.seconds``) and diffs
both directions:

* **undocumented** — a registered name no catalogue mentions
  (anchored at the registration site in code);
* **stale** — a catalogue row whose series no code site can produce
  (anchored at the doc file and line).

Dynamic name parts (f-strings, ``prefix + ".reads"``) become ``<>``
wildcards; catalogue placeholders like ``aggregates.<op>.seconds``
match them.  Relative table rows (```storage.pool.hits` / `misses```)
are expanded against the previous full name.

``deep-schema-drift`` does the same for ``repro.*/vN`` schema strings
between :data:`SCHEMA_ROOTS` and the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint.analysis.model import SCHEMA_RE, ProjectModel
from repro.lint.engine import Finding

__all__ = [
    "CATALOGUE_DOCS",
    "MetricDriftAnalyzer",
    "SCHEMA_ROOTS",
    "SchemaDriftAnalyzer",
]

#: Repo-relative docs holding the metric and schema catalogues.
CATALOGUE_DOCS = ("DESIGN.md", "docs/OPERATIONS.md", "docs/REPLAY.md")

#: Trees scanned for ``repro.*/vN`` schema strings: the linted source
#: plus the benchmarks, which emit ``repro.obs/v1`` without living
#: under ``src``.
SCHEMA_ROOTS = ("src/repro", "benchmarks")

#: A documented metric token: dotted lowercase segments, ``<...>``
#: placeholders allowed.
_DOC_TOKEN_RE = re.compile(
    r"`(\.?[a-z0-9_<>]+(?:\.[a-z0-9_<>]+)*)`"
)

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _pattern_to_regex(name: str) -> re.Pattern:
    """``a.<op>.seconds`` / ``<>.reads`` -> anchored regex."""
    parts = re.split(r"<[^>]*>", name)
    return re.compile(
        "(?s)^" + "[a-z0-9_.]+".join(re.escape(p) for p in parts) + "$"
    )


def _placeholder_text(name: str) -> str:
    """A representative literal for a pattern (``<op>`` -> ``zz``)."""
    return re.sub(r"<[^>]*>", "zz", name)


class _Catalogue:
    """The documented metric names, parsed from the markdown docs."""

    def __init__(self) -> None:
        #: every name mentioned anywhere in the docs (the
        #: "documented" universe for the undocumented check)
        self.mentioned: set[str] = set()
        #: names from catalogue table rows, with their doc location
        #: (the universe the staleness check walks)
        self.table_rows: list[tuple[str, str, int]] = []

    def add_doc(self, rel_path: str, text: str) -> None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            names = self._line_names(line)
            self.mentioned.update(names)
            if self._is_catalogue_row(line):
                for name in names:
                    self.table_rows.append((name, rel_path, lineno))

    @staticmethod
    def _is_catalogue_row(line: str) -> bool:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2:
            return False
        kind = cells[1].split("/")[0].strip().lower()
        return kind in _METRIC_KINDS

    @staticmethod
    def _line_names(line: str) -> list[str]:
        """Backticked metric names on one line, continuations expanded.

        ``| `storage.pool.hits` / `misses` | counter |`` documents both
        ``storage.pool.hits`` and ``storage.pool.misses``: a token with
        fewer segments than the previous full name, separated from it
        by ``/``, replaces the previous name's trailing segments.
        """
        names: list[str] = []
        prev: str | None = None
        last_end = None
        for match in _DOC_TOKEN_RE.finditer(line):
            token = match.group(1)
            gap = line[last_end:match.start()] if last_end else ""
            last_end = match.end()
            relative = token.startswith(".")
            token = token.lstrip(".")
            segments = token.split(".")
            prev_segments = prev.split(".") if prev else []
            # `scan.shared` after `query.service.scan.fetches` splices
            # (its head aligns with prev at the splice point); a
            # shorter *full* name like `query.inserts` after
            # `query.progressive.blocks` does not — its head matches
            # no spliceable position, so it stands alone.
            aligned = (
                len(segments) < len(prev_segments)
                and (len(segments) == 1
                     or segments[0]
                     == prev_segments[len(prev_segments) - len(segments)])
            )
            is_continuation = (
                prev is not None
                and gap.strip() == "/"
                and (relative or aligned)
            )
            if is_continuation:
                base = prev.split(".")
                name = ".".join(base[: len(base) - len(segments)]
                                + segments)
                names.append(name)
                continue
            if "." not in token:
                prev = None
                continue
            names.append(token)
            prev = token
        return names


class MetricDriftAnalyzer:
    """Two-way diff of metric registrations vs. the doc catalogues."""

    rule_id = "deep-metric-drift"
    severity = "error"
    description = (
        "every registered metric name is documented in the catalogue "
        "docs, and every catalogue row names a series code can produce"
    )

    def analyze(self, project: ProjectModel) -> list[Finding]:
        """Yield undocumented-registration and stale-row findings."""
        catalogue = _Catalogue()
        root = Path(project.root)
        for rel in CATALOGUE_DOCS:
            doc = root / rel
            if doc.is_file():
                catalogue.add_doc(rel, doc.read_text())
        doc_literals = {
            n for n in catalogue.mentioned if "<" not in n
        }
        doc_patterns = {
            n: _pattern_to_regex(n)
            for n in catalogue.mentioned if "<" in n
        }
        code_literals: dict[str, tuple[str, int]] = {}
        code_patterns: dict[str, tuple[str, int, re.Pattern]] = {}
        findings: list[Finding] = []
        for summary in project.modules():
            for site in summary.metrics:
                if site.is_pattern:
                    if site.name.strip("<>") == "":
                        continue  # fully dynamic: nothing to check
                    code_patterns.setdefault(
                        site.name,
                        (summary.path, site.line,
                         _pattern_to_regex(site.name)),
                    )
                else:
                    code_literals.setdefault(
                        site.name, (summary.path, site.line)
                    )

        def documented(name: str) -> bool:
            if name in doc_literals:
                return True
            return any(rx.match(name) for rx in doc_patterns.values())

        # Direction 1: every registration is documented.
        for name in sorted(code_literals):
            if not documented(name):
                path, line = code_literals[name]
                findings.append(self._finding(
                    path, line,
                    f"metric {name!r} is registered here but absent "
                    f"from the catalogues ({', '.join(CATALOGUE_DOCS)}); "
                    f"document it or drop the series",
                ))
        for name in sorted(code_patterns):
            path, line, rx = code_patterns[name]
            probe = _placeholder_text(name)
            ok = (
                any(rx.match(d) for d in doc_literals)
                or any(p.match(probe) or rx.match(_placeholder_text(d))
                       for d, p in doc_patterns.items())
            )
            if not ok:
                findings.append(self._finding(
                    path, line,
                    f"dynamic metric {name!r} matches no catalogue "
                    f"entry; document the family (use <...> for the "
                    f"dynamic part)",
                ))
        # Direction 2: every catalogue row is live.
        code_literal_set = set(code_literals)
        code_regexes = [rx for _, _, rx in code_patterns.values()]
        seen_rows: set[str] = set()
        for name, doc_path, line in catalogue.table_rows:
            if name in seen_rows:
                continue
            seen_rows.add(name)
            if "<" in name:
                rx = _pattern_to_regex(name)
                probe = _placeholder_text(name)
                live = (
                    any(rx.match(c) for c in code_literal_set)
                    or any(crx.match(probe) for crx in code_regexes)
                )
            else:
                live = (
                    name in code_literal_set
                    or any(crx.match(name) for crx in code_regexes)
                )
            if not live:
                findings.append(self._finding(
                    doc_path, line,
                    f"catalogue row documents {name!r} but no "
                    f"registration site can produce it; the row is "
                    f"stale (or the series was renamed)",
                ))
        return findings

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            file=path, line=line, rule_id=self.rule_id,
            severity=self.severity, message=message,
        )


class SchemaDriftAnalyzer:
    """Two-way diff of ``repro.*/vN`` schema strings vs. the docs."""

    rule_id = "deep-schema-drift"
    severity = "error"
    description = (
        "every repro.*/vN schema string in code is documented, and "
        "every documented schema exists in code"
    )

    def analyze(self, project: ProjectModel) -> list[Finding]:
        """Yield undocumented-schema and vanished-schema findings."""
        root = Path(project.root)
        code: dict[str, tuple[str, int]] = {}
        # The project model already carries schema strings for the
        # linted tree; the other schema roots (benchmarks) are scanned
        # textually — cheap, and they are not python-model material.
        for summary in project.modules():
            for schema, line in summary.schemas:
                code.setdefault(schema, (summary.path, line))
        for rel in SCHEMA_ROOTS:
            for file in sorted((root / rel).rglob("*.py")):
                rel_file = file.relative_to(root).as_posix()
                if rel_file in project.summaries:
                    continue
                for lineno, text in enumerate(
                    file.read_text().splitlines(), start=1
                ):
                    for match in SCHEMA_RE.finditer(text):
                        code.setdefault(match.group(0),
                                        (rel_file, lineno))
        docs: dict[str, tuple[str, int]] = {}
        for rel in CATALOGUE_DOCS:
            doc = root / rel
            if not doc.is_file():
                continue
            for lineno, text in enumerate(
                doc.read_text().splitlines(), start=1
            ):
                for match in SCHEMA_RE.finditer(text):
                    docs.setdefault(match.group(0), (rel, lineno))
        findings: list[Finding] = []
        for schema in sorted(set(code) - set(docs)):
            path, line = code[schema]
            findings.append(Finding(
                file=path, line=line, rule_id=self.rule_id,
                severity=self.severity,
                message=(
                    f"schema {schema!r} appears in code but in none of "
                    f"the docs ({', '.join(CATALOGUE_DOCS)}); document the "
                    f"format"
                ),
            ))
        for schema in sorted(set(docs) - set(code)):
            path, line = docs[schema]
            findings.append(Finding(
                file=path, line=line, rule_id=self.rule_id,
                severity=self.severity,
                message=(
                    f"docs describe schema {schema!r} but nothing in "
                    f"the scanned roots produces it; the spec is stale"
                ),
            ))
        return findings
