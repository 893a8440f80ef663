"""E8c — §1.2: the pre-AIMS baselines ("Bayesian Classifiers, Decision
Trees ...") "only work well when the whole data is available".

Two-part reproduction:

1. On *isolated, completed* signs with whole-motion features the batch
   learners are competitive with the weighted-SVD measure — which is
   exactly why the earlier work [28, 5] used them.
2. Their structural limitation: they need the completed motion.  Feeding
   them the causal prefixes a streaming recognizer actually sees degrades
   them sharply, while the covariance-based measure already identifies
   the sign from a partial performance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.classical import (
    DecisionTree,
    GaussianNaiveBayes,
    OneVsRestSVM,
    motion_features,
)
from repro.analysis.mlp import MLPClassifier
from repro.analysis.validation import accuracy
from repro.online.recognizer import classify_instance
from repro.online.similarity import weighted_svd_similarity
from repro.online.vocabulary import MotionVocabulary
from repro.sensors.asl import ASL_VOCABULARY, synthesize_sign

from _util import format_table

N_TRAIN = 6
N_TEST = 6
PREFIX = 0.4  # fraction of the motion a mid-stream window has seen


def build_data():
    rng = np.random.default_rng(83)
    signs = ASL_VOCABULARY[:8]
    train = {s.name: [synthesize_sign(s, rng).frames for _ in range(N_TRAIN)]
             for s in signs}
    test = [
        (s.name, synthesize_sign(s, rng).frames)
        for s in signs
        for _ in range(N_TEST)
    ]
    return signs, train, test


def run_study():
    signs, train, test = build_data()
    x_train = np.array(
        [motion_features(m) for mats in train.values() for m in mats]
    )
    y_train = np.array(
        [name for name, mats in train.items() for _ in mats]
    )
    vocabulary = MotionVocabulary.from_instances(train)
    templates = {name: mats[0] for name, mats in train.items()}

    learners = {
        "naive_bayes": GaussianNaiveBayes().fit(x_train, y_train),
        "decision_tree": DecisionTree(max_depth=8).fit(x_train, y_train),
        "svm_ovr": OneVsRestSVM(c=1.0).fit(x_train, y_train),
        "mlp": MLPClassifier(hidden=24, epochs=150, seed=0).fit(
            x_train, y_train
        ),
    }

    results = {}
    rows = []
    for setting, clip in (("completed", 1.0), ("prefix_40pct", PREFIX)):
        y_true = []
        predictions = {name: [] for name in learners}
        predictions["weighted_svd"] = []
        for truth, frames in test:
            upto = max(8, int(clip * frames.shape[0]))
            clipped = frames[:upto]
            y_true.append(truth)
            feats = motion_features(clipped)
            for name, model in learners.items():
                predictions[name].append(model.predict(feats[None, :])[0])
            predictions["weighted_svd"].append(
                classify_instance(
                    clipped, vocabulary, weighted_svd_similarity, templates
                )
            )
        y_true = np.array(y_true)
        row = [setting]
        for name in ("weighted_svd", "naive_bayes", "decision_tree",
                     "svm_ovr", "mlp"):
            acc = accuracy(y_true, np.array(predictions[name]))
            results[(setting, name)] = acc
            row.append(f"{acc:.1%}")
        rows.append(row)
    return results, rows


def test_e8c_classical_baselines(emit, benchmark):
    results, rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    emit(
        "E8c_classical_baselines",
        format_table(
            ["setting", "weighted_svd", "naive_bayes", "decision_tree",
             "svm_ovr", "mlp"],
            rows,
        ),
    )
    # On completed motions the batch learners are competitive (>= 80 %).
    for name in ("naive_bayes", "svm_ovr"):
        assert results[("completed", name)] >= 0.8
    # On causal prefixes the weighted-SVD measure degrades least.
    svd_drop = (
        results[("completed", "weighted_svd")]
        - results[("prefix_40pct", "weighted_svd")]
    )
    worst_classical_drop = max(
        results[("completed", name)] - results[("prefix_40pct", name)]
        for name in ("naive_bayes", "decision_tree", "svm_ovr", "mlp")
    )
    assert results[("prefix_40pct", "weighted_svd")] >= max(
        results[("prefix_40pct", name)]
        for name in ("naive_bayes", "decision_tree", "svm_ovr", "mlp")
    )
    assert svd_drop <= worst_classical_drop
