"""Behavioural queries over classroom sessions (§2.1).

The paper's example queries, verbatim: "Which distraction was around when
a particular child missed a question?" and "Is there a correlation (i.e.,
covariance) between hits (or misses) and subject's attention period to
distractions?"  This module answers both directly on
:class:`~repro.sensors.classroom.ClassroomSession` objects — the
off-line-analysis layer a psychologist would actually script against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import QueryError
from repro.sensors.classroom import ClassroomSession, DistractionInterval, StimulusEvent

__all__ = [
    "MissContext",
    "distractions_near_misses",
    "attention_periods",
    "hits_vs_attention_covariance",
]


@dataclass(frozen=True)
class MissContext:
    """One missed target and the distraction active around it."""

    miss: StimulusEvent
    distraction: DistractionInterval | None


def distractions_near_misses(
    session: ClassroomSession, window: float = 2.0
) -> list[MissContext]:
    """"Which distraction was around when the child missed a question?"

    Args:
        session: One subject's recorded session.
        window: Seconds around the stimulus in which a distraction counts
            as "around".

    Returns:
        One :class:`MissContext` per missed target, carrying the
        overlapping distraction (or ``None``).
    """
    if window < 0:
        raise QueryError(f"window must be >= 0, got {window}")
    contexts = []
    for event in session.stimuli:
        if not event.is_target or event.responded:
            continue
        active = None
        for d in session.distractions:
            if d.start - window <= event.timestamp <= d.end + window:
                active = d
                break
        contexts.append(MissContext(miss=event, distraction=active))
    return contexts


def attention_periods(
    session: ClassroomSession, orientation_threshold: float = 10.0
) -> float:
    """Total seconds the head tracker was oriented away during
    distractions — the "subject's attention period to distractions".

    Uses the head tracker's H-rotation channel: samples during a
    distraction interval whose |H| exceeds the threshold count as
    attending to the distraction.
    """
    if orientation_threshold <= 0:
        raise QueryError("orientation threshold must be positive")
    head = session.trackers["head"]
    h_channel = head[:, 3]
    total = 0.0
    for d in session.distractions:
        i0 = int(d.start * session.rate_hz)
        i1 = min(head.shape[0], int(d.end * session.rate_hz))
        if i1 <= i0:
            continue
        oriented = np.abs(h_channel[i0:i1]) > orientation_threshold
        total += float(oriented.sum()) / session.rate_hz
    return total


def hits_vs_attention_covariance(
    sessions: list[ClassroomSession],
) -> tuple[float, float]:
    """"Is there a correlation between hits (or misses) and the subject's
    attention period to distractions?"

    Returns:
        ``(covariance, pearson_r)`` between per-subject hit counts and
        per-subject distraction-attention seconds.  The expected sign is
        negative: subjects who orient to distractions hit fewer targets.
    """
    if len(sessions) < 2:
        raise QueryError("need at least two sessions for a covariance")
    hits = np.array([float(s.hits()) for s in sessions])
    attention = np.array([attention_periods(s) for s in sessions])
    cov = float(np.cov(hits, attention, bias=True)[0, 1])
    denom = float(hits.std() * attention.std())
    r = cov / denom if denom > 0 else 0.0
    return cov, r
