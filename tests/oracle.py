"""Reference dual-stage hypergraph attention encoder for the tests.

The critic's hypergraph has n intersections over a t-step window. Its
nodes are the (intersection i, window step tau) instances, N = n*t of
them, at row tau*n + i, so one step's nodes are contiguous. Hyperedges come
in two families: t spatial edges (all intersections at one step; columns
[0, t)) and n temporal edges (all steps of one intersection; columns
[t, t+n)). Every node has degree exactly 2.

encode(X, H) takes any binary incidence H (N x E) and follows Bai et al.,
"Hypergraph Convolution and Hypergraph Attention", Pattern Recognition
2021. Per head h, with X_h = X W_h and temperature tau:

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

import numpy as np

from stdsh import autodiff as ad
from stdsh.autodiff import Tensor
from stdsh.encoder import EncoderParams


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
    return ad.custom_op(a.data.T, [a], lambda g: [g.T])


def reduce_max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along axis; the gradient goes to the first argmax of each slice."""
    def grads(g):
        sel = np.zeros_like(a.data)
        first = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        np.put_along_axis(sel, first, 1.0, axis=axis)
        return [sel * (g if keepdims else np.expand_dims(g, axis))]

    return ad.custom_op(a.data.max(axis=axis, keepdims=keepdims), [a], grads)


def concat(tensors, axis: int = 0) -> Tensor:
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return ad.custom_op(np.concatenate([t.data for t in tensors], axis=axis),
                        tensors, lambda g: np.split(g, cuts, axis=axis))


def clear_tape() -> None:
    del ad._tape()[:]


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
    ad.backward(y)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).copy()
    x.requires_grad = x.track = was_leaf
    x.grad = None

    flat = x.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    with ad.no_grad():
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
    s = ad.matmul(X_h, a_h)                       # (N, 1) node scores
    S = ad.matmul(s, Tensor(np.ones((1, H.shape[1]))))
    return ad.masked_softmax(ad.scale(S, 1.0 / tau), H > 0, axis=0)


def hyperedge_embed(alpha: Tensor, X_h: Tensor) -> Tensor:
    """z_e = sum_i alpha[i,e] * x_i, one row per hyperedge."""
    return ad.matmul(transpose(alpha), X_h)


def inter_attention(Z: Tensor, H: np.ndarray, b_h: Tensor, tau: float) -> Tensor:
    """Stage B: beta[i,e], softmax of edge scores over each node's edges."""
    H = _check_incidence(H)
    u = ad.matmul(Z, b_h)                         # (E, 1) edge scores
    T = ad.matmul(Tensor(np.ones((H.shape[0], 1))), transpose(u))
    return ad.masked_softmax(ad.scale(T, 1.0 / tau), H > 0, axis=1)


def _uniform_weights(H: np.ndarray, axis: int) -> np.ndarray:
    return H / H.sum(axis=axis, keepdims=True)


def encode(X, H: np.ndarray, params: EncoderParams,
           uniform: bool = False) -> tuple[Tensor, Tensor]:
    """Per-node embeddings Y (N, d_model) and graph embedding g (1, d_model).

    X is (N, d), a Tensor or an array; H is (N, E) with no empty edge and
    no isolated node.
    """
    if not isinstance(X, Tensor):
        X = Tensor(X)
    H = _check_incidence(H)
    if X.data.ndim != 2 or X.data.shape[0] != H.shape[0]:
        raise ValueError(f"X shape {X.shape} does not match H shape {H.shape}")
    if X.data.shape[1] != params.d:
        raise ValueError(f"X width {X.data.shape[1]} != params.d {params.d}")

    heads = []
    for h in range(params.K):
        X_h = ad.matmul(X, params.W[h])
        if uniform:
            Z = hyperedge_embed(Tensor(_uniform_weights(H, axis=0)), X_h)
            beta = Tensor(_uniform_weights(H, axis=1))
        else:
            alpha = intra_attention(X_h, H, params.a[h], params.tau)
            Z = hyperedge_embed(alpha, X_h)
            beta = inter_attention(Z, H, params.b[h], params.tau)
        heads.append(ad.matmul(beta, Z))          # (N, d_h) updated nodes
    cat = heads[0] if len(heads) == 1 else concat(heads, axis=1)
    Y = ad.add(ad.matmul(cat, params.Wo), params.bo)
    return Y, reduce_max(Y, axis=0, keepdims=True)
