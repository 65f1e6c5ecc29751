"""Adaptive-moment optimizer and global-norm gradient clipping.

Parameters and gradients are dicts of arrays keyed by parameter name; a
gradient dict leaves out the parameters its loss does not reach.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8      # moment decay rates, denominator floor


class Adam:
    """Adam over a fixed ordered set of named arrays, updated in place."""

    def __init__(self, params: dict, lr: float = 3e-4):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p) for p in self.params.values()]
        self._v = [np.zeros_like(p) for p in self.params.values()]

    def step(self, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for (name, p), m, v in zip(self.params.items(), self._m, self._v):
            g = grads.get(name)
            if g is None:
                continue
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)


def clip_grad_norm(grads: dict, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Squares are summed in the dict's order. Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        s = max_norm / norm
        for g in grads.values():
            g *= s
    return norm
