"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps a numpy array; every op appends a record to a per-thread
tape (Wengert list). backward() replays the tape once in reverse and
accumulates gradients into every tracked tensor. The op set is the minimum
the actor and the critic run: dense matmul, elementwise arithmetic,
exp/tanh, sum/mean reductions, gather, clipping, and masked (log-)softmax
with max-subtraction stabilization. The attention encoder is one
custom_op with a hand-written backward.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

_state = threading.local()


def _tape() -> list:
    if not hasattr(_state, "tape"):
        _state.tape = []
        _state.grad_enabled = True
    return _state.tape


def _grad_enabled() -> bool:
    _tape()
    return _state.grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block (rollouts, FD probes)."""
    _tape()
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextmanager
def tape_scope():
    """Records made inside the block never outlive it.

    A forward pass that raises, or an update that returns before its
    backward, leaves no records behind for the next backward() to replay.
    """
    tape = _tape()
    start = len(tape)
    try:
        yield
    finally:
        del tape[start:]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "track")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.track = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.track:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _record(out: Tensor, backprop) -> Tensor:
    if _grad_enabled():
        out.track = True
        _tape().append((out, backprop))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # sum gradient down to `shape`, reversing numpy broadcasting
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(k for k, s in enumerate(shape) if s == 1 and g.shape[k] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _tracked(*ts: Tensor) -> bool:
    return _grad_enabled() and any(t.track for t in ts)


def custom_op(data, inputs, grads) -> Tensor:
    """An op whose forward ran outside this module, put on the tape.

    Args:
        data: the op's output array, already computed.
        inputs: the Tensors the output depends on.
        grads: g -> one gradient per input (None where the output does not
            depend on it), given g = d loss / d output.
    """
    out = Tensor(data)
    if not _tracked(*inputs):
        return out

    def backprop(g):
        for t, gt in zip(inputs, grads(g)):
            if gt is not None:
                _accumulate(t, gt)

    return _record(out, backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")
    if not _tracked(a, b):
        return out

    def backprop(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(out, backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise ValueError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    if not _tracked(a, b):
        return out

    def backprop(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _record(out, backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    if not _tracked(a, b):
        return out

    def backprop(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, backprop)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    if not _tracked(a):
        return out

    def backprop(g):
        _accumulate(a, g * s)

    return _record(out, backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if not _tracked(a, b):
        return out

    def backprop(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(out, backprop)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    if not _tracked(a):
        return out

    def backprop(g):
        _accumulate(a, g * out.data)

    return _record(out, backprop)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    if not _tracked(a):
        return out

    def backprop(g):
        _accumulate(a, g * (1.0 - out.data * out.data))

    return _record(out, backprop)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    if not _tracked(a):
        return out

    def backprop(g):
        _accumulate(a, g * 2.0 * a.data)

    return _record(out, backprop)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if not _tracked(a):
        return out

    def backprop(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(out, backprop)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    denom = a.data.size if axis is None else a.data.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / denom)


def gather(a: Tensor, rows, cols) -> Tensor:
    """Pick a[rows[k], cols[k]] for each k; returns a 1-d tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(a.data[rows, cols])
    if not _tracked(a):
        return out

    def backprop(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        _accumulate(a, ga)

    return _record(out, backprop)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where a is inside the interval."""
    out = Tensor(np.clip(a.data, lo, hi))
    if not _tracked(a):
        return out
    inside = (a.data >= lo) & (a.data <= hi)

    def backprop(g):
        _accumulate(a, g * inside)

    return _record(out, backprop)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first argument."""
    out = Tensor(np.minimum(a.data, b.data))
    if not _tracked(a, b):
        return out
    first = a.data <= b.data

    def backprop(g):
        _accumulate(a, _unbroadcast(g * first, a.data.shape))
        _accumulate(b, _unbroadcast(g * ~first, b.data.shape))

    return _record(out, backprop)


def _masked_softmax_np(x: np.ndarray, mask: np.ndarray, axis: int):
    """Numerically stable masked softmax; masked entries come out exactly 0.

    The max of each group is subtracted before exponentiation; the result is
    identical to the unshifted softmax (shift invariance) but never overflows.
    Groups with no unmasked entry yield all-zero output.
    """
    shifted = np.where(mask, x, -np.inf)
    m = shifted.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(mask, np.exp(x - m), 0.0)
    s = e.sum(axis=axis, keepdims=True)
    p = np.divide(e, s, out=np.zeros_like(e), where=s > 0)
    return p, s, m


def masked_softmax(a: Tensor, mask, axis: int) -> Tensor:
    """Softmax over the unmasked entries of each slice along `axis`.

    mask is a boolean array broadcastable to a's shape; True = participate.
    Masked positions are exactly 0 in the output and receive zero gradient.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    p = _masked_softmax_np(a.data, mask, axis)[0]
    out = Tensor(p)
    if not _tracked(a):
        return out

    def backprop(g):
        dot = (p * g).sum(axis=axis, keepdims=True)
        _accumulate(a, p * (g - dot))

    return _record(out, backprop)


def masked_log_softmax_np(x: np.ndarray, mask: np.ndarray, axis: int):
    """(log-probs, probs) of the masked softmax on plain arrays; masked
    positions are 0.0 in both (not -inf)."""
    p, s, m = _masked_softmax_np(x, mask, axis)
    logp = np.where(mask & (s > 0), x - m - np.log(np.where(s > 0, s, 1.0)), 0.0)
    return logp, p


def masked_log_softmax(a: Tensor, mask, axis: int) -> Tensor:
    """Log of the masked softmax; masked positions are 0.0 (not -inf) so they
    can be multiplied by zero probabilities without producing nan."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    logp, p = masked_log_softmax_np(a.data, mask, axis)
    out = Tensor(logp)
    if not _tracked(a):
        return out

    def backprop(g):
        tot = np.where(mask, g, 0.0).sum(axis=axis, keepdims=True)
        _accumulate(a, np.where(mask, g - p * tot, 0.0))

    return _record(out, backprop)


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; populates .grad on tracked tensors.

    Visits each tape record exactly once in reverse recording order, then
    clears the tape (graphs are rebuilt every forward pass).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = _tape()
    loss.grad = np.ones_like(loss.data)
    for out, backprop in reversed(tape):
        if out.grad is not None:
            backprop(out.grad)
    del tape[:]

