"""Ablation A5 — recognizer window size and vocabulary size.

The online recognizer's sliding window trades latency against covariance
stability: too short and the eigenstructure is noise, too long and
neighbouring signs bleed together.  The vocabulary-size sweep shows how
recognition degrades as the sign library grows (the paper's vocabulary
question for general immersive commands).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.online.recognizer import RecognizerConfig, StreamRecognizer
from repro.online.vocabulary import MotionVocabulary
from repro.sensors.asl import ASL_VOCABULARY, synthesize_session, synthesize_sign

from _util import format_table


def session_f1(vocabulary, signs, rng, window):
    tp = fp = fn = 0
    for _ in range(4):
        order = [signs[i] for i in rng.permutation(len(signs))]
        frames, segments = synthesize_session(order, rng, gap_duration=0.8)
        recognizer = StreamRecognizer(
            vocabulary,
            RecognizerConfig(window=window, compare_every=10,
                             declare_threshold=0.4, decline_steps=3),
        )
        recognizer.calibrate_rest(frames[: segments[0].start])
        detections = recognizer.process(frames)
        matched = set()
        for det in detections:
            hit = None
            for k, seg in enumerate(segments):
                if (det.name == seg.name and det.start < seg.end
                        and seg.start < det.end and k not in matched):
                    hit = k
                    break
            if hit is None:
                fp += 1
            else:
                matched.add(hit)
                tp += 1
        fn += len(segments) - len(matched)
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    return 2 * precision * recall / max(precision + recall, 1e-9)


def run_window_sweep():
    rng = np.random.default_rng(51)
    signs = [ASL_VOCABULARY[i] for i in (0, 2, 5, 7, 9)]
    training = {
        s.name: [synthesize_sign(s, rng).frames for _ in range(4)]
        for s in signs
    }
    vocabulary = MotionVocabulary.from_instances(training)
    scores = {}
    rows = []
    for window in (20, 50, 80, 120):
        f1 = session_f1(vocabulary, signs, rng, window)
        scores[window] = f1
        rows.append([window, f"{f1:.2f}"])
    return scores, rows


def test_a5_window_size(emit, benchmark):
    scores, rows = benchmark.pedantic(run_window_sweep, rounds=1, iterations=1)
    emit(
        "A5a_window_sweep",
        format_table(["window (frames)", "stream F1"], rows),
    )
    best = max(scores.values())
    assert best >= 0.85
    # The default (50) sits at or near the optimum.
    assert scores[50] >= best - 0.1


def run_vocabulary_sweep():
    rng = np.random.default_rng(52)
    rows = []
    scores = {}
    for size in (3, 6, 10):
        signs = list(ASL_VOCABULARY[:size])
        training = {
            s.name: [synthesize_sign(s, rng).frames for _ in range(4)]
            for s in signs
        }
        vocabulary = MotionVocabulary.from_instances(training)
        # Isolated classification accuracy over fresh instances.
        from repro.online.recognizer import classify_instance
        from repro.online.similarity import weighted_svd_similarity

        templates = {n: m[0] for n, m in training.items()}
        correct = total = 0
        for spec in signs:
            for _ in range(6):
                inst = synthesize_sign(spec, rng).frames
                label = classify_instance(
                    inst, vocabulary, weighted_svd_similarity, templates
                )
                correct += label == spec.name
                total += 1
        scores[size] = correct / total
        rows.append([size, f"{scores[size]:.1%}"])
    return scores, rows


def test_a5_vocabulary_size(emit, benchmark):
    scores, rows = benchmark.pedantic(
        run_vocabulary_sweep, rounds=1, iterations=1
    )
    emit(
        "A5b_vocabulary_sweep",
        format_table(["vocabulary size", "isolated accuracy"], rows),
    )
    assert all(acc >= 0.85 for acc in scores.values())
