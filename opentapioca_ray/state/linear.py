"""Linear classifier: StandardScaler + class-weighted linear model.

Stands in for the reference's sklearn `Pipeline(StandardScaler ->
LinearSVC(class_weight='balanced', C, max_iter))` (reference
opentapioca/classifier.py:214-219) — sklearn is not available in this
environment, so the same semantics (standardize features, L2-regularized
class-balanced linear fit, `decision_function = w·x + b`) are implemented
in numpy. Loss is the squared hinge (LinearSVC's default) minimized by
deterministic full-batch Adam; training matrices are small (they are
collected to the driver exactly as the reference does).
"""

from __future__ import annotations

import json

import numpy as np


class StandardScaler:
    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_


class LinearModel:
    """Class-balanced L2-regularized squared-hinge linear classifier."""

    def __init__(self, C: float = 0.001, max_iter: int = 500, lr: float = 0.05):
        self.C = C
        self.max_iter = max_iter
        self.lr = lr
        self.scaler = StandardScaler()
        self.w: np.ndarray | None = None
        self.b: float = 0.0

    def fit(self, X, y) -> "LinearModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        Xs = self.scaler.fit(X).transform(X)
        n, d = Xs.shape
        sign = np.where(y > 0, 1.0, -1.0)
        # class_weight='balanced': n / (2 * count_class)
        n_pos = max(1.0, float((sign > 0).sum()))
        n_neg = max(1.0, float((sign < 0).sum()))
        sample_w = np.where(sign > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))

        w = np.zeros(d)
        b = 0.0
        m_w = np.zeros(d)
        v_w = np.zeros(d)
        m_b = v_b = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.max_iter + 1):
            margin = sign * (Xs @ w + b)
            slack = np.maximum(0.0, 1.0 - margin)
            # objective: 0.5*||w||^2 + C * sum_i sw_i * slack_i^2
            coef = -2.0 * self.C * sample_w * slack * sign
            grad_w = w + Xs.T @ coef
            grad_b = float(coef.sum())
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w**2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b**2
            mhat_w = m_w / (1 - beta1**t)
            vhat_w = v_w / (1 - beta2**t)
            mhat_b = m_b / (1 - beta1**t)
            vhat_b = v_b / (1 - beta2**t)
            w -= self.lr * mhat_w / (np.sqrt(vhat_w) + eps)
            b -= self.lr * mhat_b / (np.sqrt(vhat_b) + eps)
        self.w, self.b = w, b
        return self

    def decision_function(self, X) -> np.ndarray:
        Xs = self.scaler.transform(np.asarray(X, dtype=np.float64))
        # a row-wise sum, not `Xs @ w`: BLAS rounds a row's dot product
        # by the row's position in X, so a score would depend on which
        # rows share its batch
        return (Xs * self.w).sum(axis=1) + self.b

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(np.int64)

    # -- persistence (JSON; the reference pickles the sklearn pipeline,
    # classifier.py:64-71)
    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "max_iter": self.max_iter,
            "lr": self.lr,
            "w": self.w.tolist(),
            "b": self.b,
            "mean": self.scaler.mean_.tolist(),
            "scale": self.scaler.scale_.tolist(),
        }

    @classmethod
    def from_dict(cls, dct: dict) -> "LinearModel":
        model = cls(C=dct["C"], max_iter=dct["max_iter"], lr=dct["lr"])
        model.w = np.asarray(dct["w"], dtype=np.float64)
        model.b = float(dct["b"])
        model.scaler.mean_ = np.asarray(dct["mean"], dtype=np.float64)
        model.scaler.scale_ = np.asarray(dct["scale"], dtype=np.float64)
        return model

    def save(self, fname: str) -> None:
        with open(fname, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, fname: str) -> "LinearModel":
        with open(fname) as f:
            return cls.from_dict(json.load(f))
