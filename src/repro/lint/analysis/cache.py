"""Content-hash incremental cache for the deep-analysis layer.

Parsing ~100 files and reducing them to summaries dominates a deep
lint's wall clock; the graph analyses over the summaries are cheap.
So the cache stores the **per-file summaries**, keyed by a sha1 of the
file's bytes: a warm run re-parses only files whose content changed
and rebuilds the cross-file indexes from summaries — which is what
keeps a warm ``aims lint --deep`` cheap (CI runs the cold one under a
``timeout``; ``tests/test_lint_analysis.py`` holds that a warm run
re-parses nothing).

The cache file (default ``.repro-lint-cache.json``, configurable via
``[tool.repro-lint] cache``) is self-invalidating: a schema or
model-version mismatch discards it wholesale, so a stale cache can
slow a run down but never change its findings.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.lint.analysis.model import (
    MODEL_VERSION,
    ModuleSummary,
    summary_from_dict,
    summary_to_dict,
)

__all__ = ["AnalysisCache", "CACHE_SCHEMA"]

CACHE_SCHEMA = "repro.lintcache/v1"


class AnalysisCache:
    """Per-file summary store keyed by content hash."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (not isinstance(data, dict)
                or data.get("schema") != CACHE_SCHEMA
                or data.get("model_version") != MODEL_VERSION):
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._entries = files

    def lookup(self, rel_path: str, digest: str) -> ModuleSummary | None:
        """The cached summary for ``rel_path``, if its hash matches."""
        entry = self._entries.get(rel_path)
        if entry is None or entry.get("digest") != digest:
            self.misses += 1
            return None
        try:
            summary = summary_from_dict(entry["summary"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, rel_path: str, summary: ModuleSummary) -> None:
        """Record a freshly-parsed summary for the next run."""
        self._entries[rel_path] = {
            "digest": summary.digest,
            "summary": summary_to_dict(summary),
        }
        self._dirty = True

    def prune(self, keep) -> None:
        """Drop entries for files that no longer exist in the tree."""
        keep = set(keep)
        stale = [k for k in self._entries if k not in keep]
        for key in stale:
            del self._entries[key]
            self._dirty = True

    def save(self) -> None:
        """Write the cache back atomically (rename over the old file)."""
        if not self._dirty:
            return
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "model_version": MODEL_VERSION,
                "files": self._entries,
            }
        )
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._dirty = False
