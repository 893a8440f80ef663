"""The online recognizer: sliding window + weighted SVD + isolation.

This is the §3.4 pipeline assembled: frames arrive one at a time (each
looked at once — the CDS constraint), a sliding window maintains the
sensor-space covariance *incrementally*, the window's eigenstructure is
periodically compared to every vocabulary entry with the weighted-SVD
measure, and the accumulated-evidence heuristic declares isolated,
recognized patterns in real time.

An activity gate keeps rest periods from diluting evidence: windows whose
motion energy sits below ``activity_threshold`` times the calibrated rest
level are skipped (and close out any pending declaration).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core import clock
from repro.core.errors import RecognitionError
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.online.incsvd import IncrementalMotionSpectrum
from repro.online.isolation import Detection, EvidenceAccumulator
from repro.online.vocabulary import MotionVocabulary
from repro.streams.sample import Frame

__all__ = ["StreamRecognizer", "classify_instance"]


def classify_instance(
    matrix: np.ndarray,
    vocabulary: MotionVocabulary,
    measure,
    templates: dict[str, np.ndarray] | None = None,
) -> str:
    """Label one isolated motion with the best-matching vocabulary entry.

    Args:
        matrix: The motion, ``(time, sensors)``.
        vocabulary: Known motions.
        measure: ``measure(a, b) -> float`` similarity on motion matrices
            (one of :data:`repro.online.similarity.SIMILARITY_MEASURES`).
        templates: Reference instance per sign for matrix-to-matrix
            measures; required because measures like Euclidean cannot
            consume covariance summaries.

    Returns:
        The winning sign name.
    """
    if templates is None:
        raise RecognitionError(
            "classify_instance needs one template instance per sign"
        )
    missing = [n for n in vocabulary.names() if n not in templates]
    if missing:
        raise RecognitionError(f"templates missing for {missing}")
    scores = {
        name: measure(matrix, templates[name]) for name in vocabulary.names()
    }
    return max(scores, key=scores.get)


@dataclass
class RecognizerConfig:
    """Tunables for :class:`StreamRecognizer`."""

    window: int = 60  # frames in the sliding analysis window
    compare_every: int = 10  # frames between vocabulary comparisons
    declare_threshold: float = 0.6
    decline_steps: int = 4
    activity_threshold: float = 3.0  # x rest energy
    n_components: int = 6  # eigenvectors compared


class StreamRecognizer:
    """Single-pass recognizer over a frame stream."""

    def __init__(
        self,
        vocabulary: MotionVocabulary,
        config: RecognizerConfig | None = None,
        rest_energy: float | None = None,
    ) -> None:
        self.vocabulary = vocabulary
        self.config = config or RecognizerConfig()
        if self.config.window < 4:
            raise RecognitionError("analysis window must hold >= 4 frames")
        if self.config.compare_every < 1:
            raise RecognitionError("compare_every must be >= 1")
        self._spectrum = IncrementalMotionSpectrum(vocabulary.width)
        self._window: deque[np.ndarray] = deque()
        self._accumulator = EvidenceAccumulator(
            vocabulary.names(),
            declare_threshold=self.config.declare_threshold,
            decline_steps=self.config.decline_steps,
        )
        self._rest_energy = rest_energy
        self._rest_mean: np.ndarray | None = None
        self._frames_seen = 0
        # Refractory gate: after a declaration, wait for a rest window
        # before accumulating new evidence, so one long sign's tail cannot
        # re-trigger as a duplicate detection.
        self._armed = True

    def calibrate_rest(self, rest_frames: np.ndarray) -> None:
        """Learn the rest posture and its residual energy.

        Activity is measured as deviation from the rest *posture*, not as
        within-window variance: a sign's static hold phase is quiet in
        variance terms but far from the neutral posture, and must count
        as active.
        """
        arr = np.asarray(rest_frames, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise RecognitionError(
                f"rest calibration needs (time >= 2, sensors), got {arr.shape}"
            )
        self._rest_mean = arr.mean(axis=0)
        deviations = arr - self._rest_mean[None, :]
        self._rest_energy = float(np.mean(np.sum(deviations**2, axis=1)))

    def _window_energy(self) -> float:
        matrix = np.array(self._window)
        reference = (
            self._rest_mean
            if self._rest_mean is not None
            else np.zeros(matrix.shape[1])
        )
        deviations = matrix - reference[None, :]
        return float(np.mean(np.sum(deviations**2, axis=1)))

    def process(
        self,
        frames: Iterable[Frame | np.ndarray],
        flush_at_end: bool = True,
    ) -> list[Detection]:
        """Consume a stream, returning every declared detection.

        Accepts :class:`Frame` objects or raw value vectors.

        Args:
            frames: The input stream.
            flush_at_end: Close out a still-accumulating pattern when the
                stream terminates (a finite session ends the last sign even
                if no trailing rest was observed).  Pass ``False`` when
                feeding one long stream in chunks.
        """
        if self._rest_energy is None:
            raise RecognitionError(
                "recognizer needs rest calibration; call calibrate_rest() "
                "or pass rest_energy"
            )
        detections: list[Detection] = []
        cfg = self.config
        frames_c = obs_counter("recognizer.frames")
        decisions_c = obs_counter("recognizer.decisions")
        decisions_before = decisions_c.value
        started = clock.now()
        for frame in frames:
            frames_c.inc()
            values = (
                frame.as_array() if isinstance(frame, Frame) else
                np.asarray(frame, dtype=float)
            )
            if values.shape != (self.vocabulary.width,):
                raise RecognitionError(
                    f"frame width {values.shape} != vocabulary width "
                    f"({self.vocabulary.width},)"
                )
            self._window.append(values)
            self._spectrum.add(values)
            if len(self._window) > cfg.window:
                self._spectrum.remove(self._window.popleft())
            self._frames_seen += 1

            if (
                len(self._window) < cfg.window
                or self._frames_seen % cfg.compare_every
            ):
                continue
            if self._window_energy() < cfg.activity_threshold * self._rest_energy:
                # Rest period: close out any pattern still pending, and
                # re-arm the accumulator for the next motion burst.
                pending = self._accumulator.flush(self._frames_seen)
                if pending is not None and self._armed:
                    detections.append(pending)
                self._armed = True
                continue
            if not self._armed:
                continue
            decisions_c.inc()
            values_w, vectors_w = self._spectrum.spectrum()
            sims = {
                entry.name: self.vocabulary.similarity(
                    values_w, vectors_w, entry,
                    n_components=cfg.n_components,
                )
                for entry in self.vocabulary
            }
            detection = self._accumulator.observe(sims, self._frames_seen)
            if detection is not None:
                detections.append(detection)
                self._armed = False
        if flush_at_end:
            pending = self._accumulator.flush(self._frames_seen)
            if pending is not None and self._armed:
                detections.append(pending)
        obs_counter("recognizer.detections").inc(len(detections))
        elapsed = clock.now() - started
        if elapsed > 0:
            # §3.4's real-time constraint, as a live rate: vocabulary
            # comparison rounds (recognition decisions) per second.
            obs_gauge("recognizer.decisions_per_second").set(
                (decisions_c.value - decisions_before) / elapsed
            )
        return detections
