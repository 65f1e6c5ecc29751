"""Reverse-mode differentiation of the two training losses, written by hand.

Training differentiates two losses: the clipped PPO surrogate with an
entropy bonus, through the actor's logits, and the half mean-squared error
of the critic's values. Each forward here returns its loss and a backward
closure; the nets (nets.py) and encode_window (encoder.py) carry the
backward of their own layers the same way.

Every backward does the arithmetic that a generic tape does for the same
forward, in the same order, and leaves out only steps that are exact (a
negation, a halving undone by a doubling), so its floats are the tape's
bit for bit; tests/oracle.py keeps that tape as the reference. So a mean
is a sum times 1/size, and a bias gradient is a sum over axis (0,).
"""

from __future__ import annotations

import numpy as np


def masked_log_softmax(x: np.ndarray, mask: np.ndarray):
    """(log-probs, probs) of the softmax over each row's unmasked entries.

    The row max is subtracted before exponentiation, so nothing overflows.
    Masked entries are 0.0 in both outputs (not -inf), so they can be
    multiplied by zero probabilities without producing nan; a row with no
    unmasked entry is all zero.
    """
    shifted = np.where(mask, x, -np.inf)
    m = shifted.max(axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(mask, np.exp(x - m), 0.0)
    s = e.sum(axis=1, keepdims=True)
    p = np.divide(e, s, out=np.zeros_like(e), where=s > 0)
    logp = np.where(mask & (s > 0), x - m - np.log(np.where(s > 0, s, 1.0)), 0.0)
    return logp, p


def ppo_loss(logits, mask, action, old_logp, adv, eps: float,
             entropy_coef: float):
    """Negative clipped surrogate minus the weighted mean entropy.

    Args:
        logits: (B, A) actor outputs; mask: (B, A) allowed actions.
        action: (B,) taken actions; old_logp: (B,) their log-probs at the
            start of the update; adv: (B,) advantages. The surrogate
            clips ratios to [1 - eps, 1 + eps].

    Returns:
        (loss, ratio, surrogate, entropy, backward): backward() is
        d loss / d logits, (B, A).
    """
    n = len(action)
    rows = np.arange(n)
    logp, p = masked_log_softmax(logits, mask)
    ratio = np.exp(logp[rows, action] - old_logp)
    lo, hi = 1.0 - eps, 1.0 + eps
    clipped = np.clip(ratio, lo, hi)
    m1, m2 = ratio * adv, clipped * adv
    surrogate = np.minimum(m1, m2).sum() * (1.0 / n)
    entropy = -(p * logp).sum(axis=1).sum() * (1.0 / n)
    c = float(entropy_coef)
    loss = -surrogate - entropy * c

    def backward():
        g_surr = -(1.0 / n)                       # d loss / d each surrogate row
        g_pl = c * (1.0 / n)                      # d loss / d each p * logp
        first = m1 <= m2                          # a tie takes the unclipped
        g_ratio = g_surr * first * adv
        g_ratio = g_ratio + g_surr * ~first * adv * ((ratio >= lo) & (ratio <= hi))
        g_logp = g_pl * p
        g_logp[rows, action] += g_ratio * ratio
        g_p = g_pl * logp
        # d loss / d logits through the probs, plus through the log-probs
        d = p * (g_p - (p * g_p).sum(axis=1, keepdims=True))
        tot = np.where(mask, g_logp, 0.0).sum(axis=1, keepdims=True)
        return d + np.where(mask, g_logp - p * tot, 0.0)

    return loss, ratio, surrogate, entropy, backward


def half_mse(v: np.ndarray, target: np.ndarray):
    """0.5 * mean((v - target)^2); returns (loss, backward), backward() is
    d loss / d v."""
    diff = v - target
    loss = (diff * diff).sum() * (1.0 / diff.size) * 0.5
    return loss, lambda: (1.0 / diff.size) * diff      # 0.5 * 2.0 is exact
