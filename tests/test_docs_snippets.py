"""Executable documentation: every ```python block in the docs runs.

Documentation drift is a bug class like any other — README examples
referring to removed keyword arguments, docs walkthroughs importing
renamed symbols.  This suite extracts every fenced ``python`` code
block from ``README.md`` and ``docs/*.md`` and executes it, so a
snippet that stops working fails CI instead of misleading an operator.

Conventions:

* Blocks within one file share a namespace, in order — later blocks
  may use names an earlier block defined (like a REPL transcript).
* Purely illustrative blocks opt out with the info string
  ``python no-run`` (output transcripts, pseudo-code, shell-ish
  fragments); everything tagged plain ``python`` must execute.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted(
    [ROOT / "README.md", *(ROOT / "docs").glob("*.md")],
    key=lambda p: p.name,
)

FENCE = re.compile(
    r"^```(python[^\n]*)\n(.*?)^```\s*$", re.M | re.S
)


def _blocks(path):
    """(info_string, source, line) for each python fence in one file."""
    text = path.read_text()
    out = []
    for match in FENCE.finditer(text):
        info = match.group(1).strip()
        line = text[: match.start()].count("\n") + 2
        out.append((info, match.group(2), line))
    return out


#: The doc files with at least one executable (plain ``python``) block.
EXECUTABLE = [
    p for p in DOC_FILES if any(info == "python" for info, _, _ in _blocks(p))
]


def test_docs_have_executable_snippets():
    # The suite must actually be covering something: the README and
    # the replay spec both carry executable walkthroughs.
    covered = {p.name for p in EXECUTABLE}
    assert "README.md" in covered
    assert "REPLAY.md" in covered


@pytest.mark.parametrize("path", EXECUTABLE, ids=lambda p: p.name)
def test_python_snippets_execute(path, tmp_path, monkeypatch):
    blocks = _blocks(path)
    # Snippets that write files (record.save(...) etc.) land in a
    # scratch directory, never the repo checkout.
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": f"docs_snippet_{path.stem}"}
    for info, source, line in blocks:
        if info != "python":
            continue
        code = compile(source, f"{path.name}:{line}", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{path.name} snippet at line {line} failed: "
                f"{type(exc).__name__}: {exc}"
            )
