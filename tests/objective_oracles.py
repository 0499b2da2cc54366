"""Test-suite oracles for the objectives: analytic minibatch gradients, checked
against central differences and used as ground truth for the zeroth-order
gradient estimates."""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from desopt.objective import BatchView, LossKind


def loss_margin_grad(kind: LossKind, a: np.ndarray) -> np.ndarray:
    """d(loss)/da at the signed margin; hinge kink (a = 1) takes 0."""
    if kind is LossKind.LR:
        return -expit(-a)
    if kind is LossKind.NSVM:
        t = np.tanh(a)
        return -(1.0 - t * t)
    return np.where(a < 1.0, -1.0, 0.0)


def batch_gradient(view: BatchView, x: np.ndarray) -> np.ndarray:
    """Exact gradient of view's objective at x (subgradient for the hinge)."""
    x = np.asarray(x, dtype=np.float64)
    coef = view._y * loss_margin_grad(view.obj.loss_kind, view._margins(x))
    return np.asarray(view._X.T @ coef) / view.b + view.obj.reg * x
