"""References for the tests: the tape, the encoder, the nets and the losses.

The tape is generic reverse-mode differentiation over numpy arrays. The
program differentiates by hand (stdsh.autodiff, nets.py, encode_window);
the tests compare its gradients with the tape's, which are built here from
the same forward ops.

The critic's hypergraph has n intersections over a t-step window. Its
nodes are the (intersection i, window step tau) instances, N = n*t of
them, at row tau*n + i, so one step's nodes are contiguous. Hyperedges come
in two families: t spatial edges (all intersections at one step; columns
[0, t)) and n temporal edges (all steps of one intersection; columns
[t, t+n)). Every node has degree exactly 2.

encode(X, H) takes any binary incidence H (N x E) and follows Bai et al.,
"Hypergraph Convolution and Hypergraph Attention", Pattern Recognition
2021. Per head h, with X_h = X W_h and temperature tau (encode uses 1,
as the program does):

    intra stage  alpha[i,e] = softmax over members i of e of (x_i^h a_h) / tau
    embedding    z_e        = sum_i alpha[i,e] x_i^h
    inter stage  beta[i,e]  = softmax over edges e of i of (z_e b_h) / tau
    node update  y_i^h      = sum_e beta[i,e] z_e

Head outputs are concatenated in head order, projected by W_o, b_o, and
max-pooled over nodes into the graph embedding g. With uniform=True both
stages average instead (over members / over incident edges). It builds g
from generic tape ops, some thirty records per graph, and stays independent
of the grid layout that the production encoder.encode_window assumes; the
tests tie encode_window to it.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager

import numpy as np

from stdsh.encoder import EncoderParams, encode_window


# ---------------------------------------------------------------------- tape
#
# Reverse-mode automatic differentiation over float64 numpy arrays. A
# Tensor wraps an array; every op appends a record to a per-thread tape
# (Wengert list). backward() replays the tape once in reverse and
# accumulates gradients into every tracked tensor.

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


# ----------------------------------------------------------------- incidence

def incidence(n: int, t: int) -> np.ndarray:
    """(n*t, t + n) binary incidence: spatial columns first, then temporal."""
    if n < 1 or t < 1:
        raise ValueError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    rows = np.arange(n * t)
    H = np.zeros((n * t, t + n))
    H[rows, rows // n] = 1.0          # spatial edge of step tau
    H[rows, t + rows % n] = 1.0       # temporal edge of intersection i
    return H


def spatial_only(H: np.ndarray, t: int) -> np.ndarray:
    """The spatial columns (temporal family ablated)."""
    return H[:, :t]


def temporal_only(H: np.ndarray, t: int) -> np.ndarray:
    """The temporal columns (spatial family ablated)."""
    return H[:, t:]


# ------------------------------------------------------------------ tape ops

def transpose(a: Tensor) -> Tensor:
    return custom_op(a.data.T, [a], lambda g: [g.T])


def reduce_max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along axis; the gradient goes to the first argmax of each slice."""
    def grads(g):
        sel = np.zeros_like(a.data)
        first = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        np.put_along_axis(sel, first, 1.0, axis=axis)
        return [sel * (g if keepdims else np.expand_dims(g, axis))]

    return custom_op(a.data.max(axis=axis, keepdims=keepdims), [a], grads)


def concat(tensors, axis: int = 0) -> Tensor:
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return custom_op(np.concatenate([t.data for t in tensors], axis=axis),
                     tensors, lambda g: np.split(g, cuts, axis=axis))


def clear_tape() -> None:
    del _tape()[:]


def finite_diff_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Verify df/dx at x by central differences.

    Args:
        f: deterministic function mapping the Tensor x to a scalar Tensor,
           built from tape ops.
        x: point of evaluation; perturbed in place and restored.
        eps: step size, > 0.

    Returns:
        max over coordinates of |analytic - central difference| / max(1, |analytic|).
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be > 0")
    clear_tape()
    x.grad = None
    was_leaf = x.requires_grad
    x.requires_grad = x.track = True
    y = f(x)
    if not np.all(np.isfinite(y.data)):
        raise ValueError("finite_diff_check: f(x) is not finite")
    backward(y)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).copy()
    x.requires_grad = x.track = was_leaf
    x.grad = None

    flat = x.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    with no_grad():
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            fp = float(f(x).data)
            flat[k] = keep - eps
            fm = float(f(x).data)
            flat[k] = keep
            fd = (fp - fm) / (2.0 * eps)
            worst = max(worst, abs(aflat[k] - fd) / max(1.0, abs(aflat[k])))
    return worst


# ------------------------------------------------------------------- encoder

def _check_incidence(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ValueError(f"incidence must be 2-d, got shape {H.shape}")
    if np.any(H.sum(axis=0) < 1):
        raise ValueError("empty hyperedge: cannot normalize over its members")
    if np.any(H.sum(axis=1) < 1):
        raise ValueError("isolated node: no incident hyperedge to attend over")
    return H


def intra_attention(X_h: Tensor, H: np.ndarray, a_h: Tensor, tau: float) -> Tensor:
    """Stage A: alpha[i,e], softmax of node scores within each edge column."""
    H = _check_incidence(H)
    s = matmul(X_h, a_h)                    # (N, 1) node scores
    S = matmul(s, Tensor(np.ones((1, H.shape[1]))))
    return masked_softmax(scale(S, 1.0 / tau), H > 0, axis=0)


def hyperedge_embed(alpha: Tensor, X_h: Tensor) -> Tensor:
    """z_e = sum_i alpha[i,e] * x_i, one row per hyperedge."""
    return matmul(transpose(alpha), X_h)


def inter_attention(Z: Tensor, H: np.ndarray, b_h: Tensor, tau: float) -> Tensor:
    """Stage B: beta[i,e], softmax of edge scores over each node's edges."""
    H = _check_incidence(H)
    u = matmul(Z, b_h)                      # (E, 1) edge scores
    T = matmul(Tensor(np.ones((H.shape[0], 1))), transpose(u))
    return masked_softmax(scale(T, 1.0 / tau), H > 0, axis=1)


def _uniform_weights(H: np.ndarray, axis: int) -> np.ndarray:
    return H / H.sum(axis=axis, keepdims=True)


def encode(X, H: np.ndarray, params: EncoderParams,
           uniform: bool = False) -> tuple[Tensor, Tensor]:
    """Per-node embeddings Y (N, d_model) and graph embedding g (1, d_model).

    X is (N, d), a Tensor or an array; H is (N, E) with no empty edge and
    no isolated node. Gradients reach the parameters that are Tensors
    (see taped_encoder); plain arrays enter as constants.
    """
    X = _lift(X)
    params = _map(params, _lift)
    H = _check_incidence(H)
    if X.data.ndim != 2 or X.data.shape[0] != H.shape[0]:
        raise ValueError(f"X shape {X.shape} does not match H shape {H.shape}")
    if X.data.shape[1] != params.d:
        raise ValueError(f"X width {X.data.shape[1]} != params.d {params.d}")

    heads = []
    for h in range(params.K):
        X_h = matmul(X, params.W[h])
        if uniform:
            Z = hyperedge_embed(Tensor(_uniform_weights(H, axis=0)), X_h)
            beta = Tensor(_uniform_weights(H, axis=1))
        else:
            alpha = intra_attention(X_h, H, params.a[h], 1.0)
            Z = hyperedge_embed(alpha, X_h)
            beta = inter_attention(Z, H, params.b[h], 1.0)
        heads.append(matmul(beta, Z))       # (N, d_h) updated nodes
    cat = heads[0] if len(heads) == 1 else concat(heads, axis=1)
    Y = add(matmul(cat, params.Wo), params.bo)
    return Y, reduce_max(Y, axis=0, keepdims=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _map(p: EncoderParams, fn) -> EncoderParams:
    return dataclasses.replace(p, W=[fn(w) for w in p.W], a=[fn(v) for v in p.a],
                               b=[fn(v) for v in p.b], Wo=fn(p.Wo), bo=fn(p.bo))


def taped_encoder(p: EncoderParams) -> EncoderParams:
    """p with each array as a leaf Tensor that shares its memory."""
    return _map(p, lambda x: Tensor(x, requires_grad=True))


def window_op(snapshots, windows, tp: EncoderParams, **kwargs) -> Tensor:
    """encode_window as one tape op over the Tensors of tp, its backward
    encode_window's own."""
    g, backward = encode_window(snapshots, windows, _map(tp, lambda t: t.data), **kwargs)

    def grads(dg):
        got = backward(dg)
        return [got.get(name) for name in tp.tensors()]

    return custom_op(g, list(tp.tensors().values()), grads)


# ----------------------------------------------------------- nets and losses

def taped(arrays: dict) -> dict:
    """A leaf Tensor over each named array, sharing its memory."""
    return {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}


def two_layer(x, W1, b1, W2, b2) -> Tensor:
    """tanh(x @ W1 + b1) @ W2 + b2, the forward of both nets."""
    h = tanh(add(matmul(_lift(x), W1), b1))
    return add(matmul(h, W2), b2)


def masked_distribution(logits: Tensor, mask) -> tuple[Tensor, Tensor]:
    """(log-probs, probs) under the mask; masked slots are exactly 0 in both."""
    m = np.atleast_2d(mask)
    return masked_log_softmax(logits, m, axis=1), masked_softmax(logits, m, axis=1)


def entropy_of(logp: Tensor, probs: Tensor) -> Tensor:
    """Per-row entropy, (B, 1); masked slots contribute exactly zero."""
    return scale(reduce_sum(mul(probs, logp), axis=1, keepdims=True), -1.0)


def ppo_loss(logits: Tensor, mask, action, old_logp, adv, clip_eps: float,
             entropy_coef: float):
    """The clipped surrogate with an entropy bonus; see stdsh.autodiff.ppo_loss."""
    logp, probs = masked_distribution(logits, mask)
    ratio = exp(sub(gather(logp, np.arange(len(action)), action), Tensor(old_logp)))
    a = Tensor(adv)
    clipped = clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    surrogate = reduce_mean(minimum(mul(ratio, a), mul(clipped, a)))
    ent = reduce_mean(entropy_of(logp, probs))
    return sub(scale(surrogate, -1.0), scale(ent, entropy_coef))


def half_mse(v: Tensor, target) -> Tensor:
    return scale(reduce_mean(square(sub(v, Tensor(target)))), 0.5)
