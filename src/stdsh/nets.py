"""Actor and critic networks plus masked-categorical action sampling.

Both are two affine layers with a tanh hidden width of 256 over plain
arrays; forward returns the output with its hand-written backward (see
autodiff.py). The actor's output layer starts near zero so the initial
masked policy is close to uniform; the critic's value head uses an
ordinary fan-in init.

The actor owns a fixed per-slot input scale (counts and speeds live on
very different ranges); raw observations go in, scaling happens here.
"""

from __future__ import annotations

import numpy as np


HIDDEN = 256


def _affine_init(rng, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, gain / np.sqrt(fan_in), size=(fan_in, fan_out))


class _TwoLayer:
    """x -> tanh(x @ W1 + b1) @ W2 + b2; its arrays are named prefix.W1 etc."""

    def __init__(self, prefix: str, in_width: int, out_width: int, hidden: int,
                 rng, gain: float):
        self.prefix = prefix
        self.W1 = _affine_init(rng, in_width, hidden)
        self.b1 = np.zeros((1, hidden))
        self.W2 = _affine_init(rng, hidden, out_width, gain=gain)
        self.b2 = np.zeros((1, out_width))

    def params(self) -> dict:
        """The live arrays by name; optimizers update them in place."""
        return {f"{self.prefix}.{k}": getattr(self, k) for k in ("W1", "b1", "W2", "b2")}

    def forward(self, x):
        """(B, in_width) rows -> ((B, out_width), backward), where
        backward(g) gives the gradients by name for g = d loss / d output,
        and a function that returns d loss / d x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        h = np.tanh(x @ self.W1 + self.b1)

        def backward(g):
            gh = (g @ self.W2.T) * (1.0 - h * h)
            pre = self.prefix
            return ({f"{pre}.W1": x.T @ gh, f"{pre}.b1": gh.sum(axis=(0,), keepdims=True),
                     f"{pre}.W2": h.T @ g, f"{pre}.b2": g.sum(axis=(0,), keepdims=True)},
                    lambda: gh @ self.W1.T)

        return h @ self.W2 + self.b2, backward


class PolicyNet(_TwoLayer):
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
        # near-zero head keeps the starting policy near uniform
        super().__init__("pi", in_width, n_actions, hidden, rng, gain=0.01)

    def forward(self, obs_rows):
        """(B, in_width) raw observations -> (B, n_actions) logits, backward."""
        return super().forward(np.atleast_2d(np.asarray(obs_rows, dtype=float))
                               * self.input_scale)


class CriticNet(_TwoLayer):
    """Centralized value head: embedding (or pooled observation) -> scalar."""

    def __init__(self, in_width: int, rng, hidden: int = HIDDEN):
        if in_width < 1:
            raise ValueError("critic needs in_width >= 1")
        self.in_width = in_width
        super().__init__("v", in_width, 1, hidden, rng, gain=1.0)


def act(policy: PolicyNet, obs: np.ndarray, mask: np.ndarray, rng,
        greedy: bool = False) -> int:
    """Sample (or argmax) one action from the masked categorical of one
    forward, without a backward; autodiff.masked_log_softmax's probs."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (policy.n_actions,):
        raise ValueError(f"mask must have shape ({policy.n_actions},)")
    if not mask.any():
        raise ValueError("every action is masked")
    x = np.asarray(obs, dtype=float) * policy.input_scale
    logits = np.tanh(x @ policy.W1 + policy.b1[0]) @ policy.W2 + policy.b2[0]
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    return int(np.argmax(p)) if greedy else int(rng.choice(policy.n_actions, p=p))
