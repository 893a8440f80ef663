"""Shared fixtures and the metrics sidecar for the experiment benchmarks.

Every ``bench_eNN_*.py`` file regenerates one quantitative claim of the
AIMS paper (see DESIGN.md's experiment index).  Result tables are printed
*and* written to ``benchmarks/results/<experiment>.txt`` so the run leaves
an auditable record regardless of pytest's output capture.

Passing ``--metrics-json PATH`` additionally writes the observability
registry (every counter, gauge and histogram the run populated — see
``repro.obs``) as a machine-readable JSON sidecar when the session ends.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    """Register the ``--metrics-json`` sidecar flag."""
    parser.addoption(
        "--metrics-json",
        action="store",
        default=None,
        metavar="PATH",
        help="write the repro.obs metrics registry to PATH as JSON "
        "when the benchmark session finishes",
    )


def pytest_sessionfinish(session, exitstatus):
    """Emit the metrics sidecar if ``--metrics-json`` was given."""
    path = session.config.getoption("--metrics-json")
    if not path:
        return
    from repro.obs import get_registry, registry_to_dict

    payload = {
        "schema": "repro.obs/v1",
        "exitstatus": int(exitstatus),
        "metrics": registry_to_dict(get_registry()),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def emit():
    """``emit(experiment_id, text)``: print and persist a result table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(experiment_id: str, text: str) -> None:
        banner = f"==== {experiment_id} ===="
        print(f"\n{banner}\n{text}")
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def rng():
    """One deterministic generator per benchmark session."""
    return np.random.default_rng(2003)

