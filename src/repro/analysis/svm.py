"""A from-scratch support vector machine (simplified SMO).

§2.1 of the paper: "in our preliminary experiments, we successfully (with
86% accuracy) distinguished hyperactive kids from normal ones by using a
Support Vector Machine (SVM) on the motion speed of different trackers."
Experiment E7 re-runs that study on the simulated cohort; this module is
the classifier it uses — implemented here rather than imported, per the
no-external-ML-dependency rule of this reproduction.

The trainer is Platt's Sequential Minimal Optimization in its simplified
form: repeatedly pick a KKT-violating multiplier, pair it with a random
second multiplier, and solve the two-variable subproblem analytically.
Linear and RBF kernels are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import AIMSError

__all__ = ["SVM"]


class _AnalysisError(AIMSError):
    """Classifier misuse."""


def _linear_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b.T


def _rbf_kernel(gamma: float):
    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        aa = np.sum(a**2, axis=1)[:, None]
        bb = np.sum(b**2, axis=1)[None, :]
        return np.exp(-gamma * (aa + bb - 2 * (a @ b.T)))

    return kernel


@dataclass
class SVM:
    """Soft-margin binary SVM.

    Attributes:
        c: Box constraint (regularization strength).
        kernel: ``"linear"`` or ``"rbf"``.
        gamma: RBF width (ignored for linear).
        tol: KKT violation tolerance.
        max_passes: Passes without any update before SMO stops.
        seed: RNG seed for the second-multiplier choice (determinism).
    """

    c: float = 1.0
    kernel: str = "linear"
    gamma: float = 0.5
    tol: float = 1e-3
    max_passes: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise _AnalysisError(f"C must be positive, got {self.c}")
        if self.kernel not in ("linear", "rbf"):
            raise _AnalysisError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "rbf" and self.gamma <= 0:
            raise _AnalysisError(f"gamma must be positive, got {self.gamma}")
        self._fitted = False

    def _kernel_fn(self):
        if self.kernel == "linear":
            return _linear_kernel
        return _rbf_kernel(self.gamma)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SVM":
        """Train on features ``x`` and labels ``y`` in {-1, +1}.

        Returns self, fitted.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.size:
            raise _AnalysisError(
                f"bad training shapes: x {x.shape}, y {y.shape}"
            )
        labels = set(np.unique(y).tolist())
        if not labels <= {-1.0, 1.0} or len(labels) != 2:
            raise _AnalysisError(
                f"labels must be exactly {{-1, +1}}, got {sorted(labels)}"
            )
        n = x.shape[0]
        rng = np.random.default_rng(self.seed)
        gram = self._kernel_fn()(x, x)
        alpha = np.zeros(n)
        b = 0.0

        def decision(i: int) -> float:
            return float(np.dot(alpha * y, gram[:, i]) + b)

        passes = 0
        while passes < self.max_passes:
            changed = 0
            for i in range(n):
                err_i = decision(i) - y[i]
                if not (
                    (y[i] * err_i < -self.tol and alpha[i] < self.c)
                    or (y[i] * err_i > self.tol and alpha[i] > 0)
                ):
                    continue
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                err_j = decision(j) - y[j]
                ai_old, aj_old = alpha[i], alpha[j]
                if y[i] != y[j]:
                    low = max(0.0, aj_old - ai_old)
                    high = min(self.c, self.c + aj_old - ai_old)
                else:
                    low = max(0.0, ai_old + aj_old - self.c)
                    high = min(self.c, ai_old + aj_old)
                if high - low < 1e-12:
                    continue
                eta = 2 * gram[i, j] - gram[i, i] - gram[j, j]
                if eta >= 0:
                    continue
                alpha[j] = np.clip(
                    aj_old - y[j] * (err_i - err_j) / eta, low, high
                )
                if abs(alpha[j] - aj_old) < 1e-7:
                    continue
                alpha[i] = ai_old + y[i] * y[j] * (aj_old - alpha[j])
                b1 = (
                    b - err_i
                    - y[i] * (alpha[i] - ai_old) * gram[i, i]
                    - y[j] * (alpha[j] - aj_old) * gram[i, j]
                )
                b2 = (
                    b - err_j
                    - y[i] * (alpha[i] - ai_old) * gram[i, j]
                    - y[j] * (alpha[j] - aj_old) * gram[j, j]
                )
                if 0 < alpha[i] < self.c:
                    b = b1
                elif 0 < alpha[j] < self.c:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
            passes = passes + 1 if changed == 0 else 0

        support = alpha > 1e-8
        self._support_x = x[support]
        self._support_y = y[support]
        self._support_alpha = alpha[support]
        self._b = float(b)
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise _AnalysisError("SVM is not fitted; call fit() first")

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed margin for each row of ``x``."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        gram = self._kernel_fn()(x, self._support_x)
        return gram @ (self._support_alpha * self._support_y) + self._b

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1} (ties go to +1)."""
        return np.where(self.decision_function(x) >= 0, 1.0, -1.0)
