"""Actor and critic networks plus masked-categorical action sampling.

Both are two affine layers with a tanh hidden width of 256, built on the
tape so updates flow from the losses. The actor's output layer starts
near zero so the initial masked policy is close to uniform; the critic's
value head uses an ordinary fan-in init.

The actor owns a fixed per-slot input scale (counts and speeds live on
very different ranges); raw observations go in, scaling happens here.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

HIDDEN = 256


def _affine_init(rng, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, gain / np.sqrt(fan_in), size=(fan_in, fan_out))


class PolicyNet:
    """Shared actor: observation -> action logits."""

    def __init__(self, in_width: int, n_actions: int, rng,
                 hidden: int = HIDDEN, input_scale=None):
        if in_width < 1 or n_actions < 2:
            raise ValueError("policy needs in_width >= 1 and n_actions >= 2")
        self.in_width = in_width
        self.n_actions = n_actions
        scale = np.ones(in_width) if input_scale is None else np.asarray(input_scale, float)
        if scale.shape != (in_width,):
            raise ValueError(f"input_scale must have shape ({in_width},)")
        self.input_scale = scale
        self.W1 = Tensor(_affine_init(rng, in_width, hidden), requires_grad=True)
        self.b1 = Tensor(np.zeros((1, hidden)), requires_grad=True)
        # near-zero head keeps the starting policy near uniform
        self.W2 = Tensor(_affine_init(rng, hidden, n_actions, gain=0.01),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros((1, n_actions)), requires_grad=True)

    def params(self) -> dict:
        return {"pi.W1": self.W1, "pi.b1": self.b1,
                "pi.W2": self.W2, "pi.b2": self.b2}

    def forward(self, obs_rows: np.ndarray) -> Tensor:
        """(B, in_width) raw observations -> (B, n_actions) logit Tensor."""
        x = np.atleast_2d(np.asarray(obs_rows, dtype=float)) * self.input_scale
        h = ad.tanh(ad.add(ad.matmul(Tensor(x), self.W1), self.b1))
        return ad.add(ad.matmul(h, self.W2), self.b2)

    def logits(self, obs_rows: np.ndarray) -> np.ndarray:
        """forward() on plain arrays, no tape: the same ops in the same order."""
        x = np.atleast_2d(np.asarray(obs_rows, dtype=float)) * self.input_scale
        h = np.tanh(x @ self.W1.data + self.b1.data)
        return h @ self.W2.data + self.b2.data


class CriticNet:
    """Centralized value head: embedding (or pooled observation) -> scalar."""

    def __init__(self, in_width: int, rng, hidden: int = HIDDEN):
        if in_width < 1:
            raise ValueError("critic needs in_width >= 1")
        self.in_width = in_width
        self.W1 = Tensor(_affine_init(rng, in_width, hidden), requires_grad=True)
        self.b1 = Tensor(np.zeros((1, hidden)), requires_grad=True)
        self.W2 = Tensor(_affine_init(rng, hidden, 1), requires_grad=True)
        self.b2 = Tensor(np.zeros((1, 1)), requires_grad=True)

    def params(self) -> dict:
        return {"v.W1": self.W1, "v.b1": self.b1,
                "v.W2": self.W2, "v.b2": self.b2}

    def forward(self, x: Tensor) -> Tensor:
        """(B, in_width) Tensor -> (B, 1) values; keeps upstream gradients."""
        h = ad.tanh(ad.add(ad.matmul(x, self.W1), self.b1))
        return ad.add(ad.matmul(h, self.W2), self.b2)

    def forward_np(self, x_rows: np.ndarray) -> Tensor:
        return self.forward(Tensor(np.atleast_2d(np.asarray(x_rows, dtype=float))))


def masked_distribution(logits: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """(log-probs, probs) under the mask; masked slots are exactly 0 in both."""
    m = np.atleast_2d(mask)
    logp = ad.masked_log_softmax(logits, m, axis=1)
    probs = ad.masked_softmax(logits, m, axis=1)
    return logp, probs


def entropy_of(logp: Tensor, probs: Tensor) -> Tensor:
    """Per-row entropy, (B, 1); masked slots contribute exactly zero."""
    return ad.scale(ad.reduce_sum(ad.mul(probs, logp), axis=1, keepdims=True), -1.0)


def act(policy: PolicyNet, obs: np.ndarray, mask: np.ndarray, rng,
        greedy: bool = False) -> tuple[int, float]:
    """Sample (or argmax) one action from the masked categorical."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (policy.n_actions,):
        raise ValueError(f"mask must have shape ({policy.n_actions},)")
    if not mask.any():
        raise ValueError("every action is masked")
    logp, p = ad.masked_log_softmax_np(policy.logits(obs), mask[None, :], 1)
    if greedy:
        action = int(np.argmax(p[0]))
    else:
        action = int(rng.choice(policy.n_actions, p=p[0]))
    return action, float(logp[0, action])
