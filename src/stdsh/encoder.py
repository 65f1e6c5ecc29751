"""Dual-stage hypergraph attention encoder.

Per head h: project node features X (N x d) to X_h = X @ W_h (N x d_h),
score each node, softmax the scores inside every hyperedge (intra stage,
normalized over the members of each incidence column), aggregate members
into hyperedge embeddings Z, score the edges, softmax over each node's
incident edges (inter stage, normalized along incidence rows), and pull the
edge embeddings back to the nodes. Head outputs are concatenated in head
order, projected to d_model with W_o/b_o, and max-pooled over nodes into
the graph embedding g. Both softmax stages subtract the per-group max
before exponentiation, at temperature 1.

Setting uniform=True replaces both attention stages with plain averaging
(over members / over incident edges) while keeping the projections, so the
module stays differentiable end to end.

The critic's graphs all share one structure: node (i, tau) is row
tau*n + i of a t x n grid, each spatial edge is a grid row (one window
step) and each temporal edge a grid column (one intersection).
encode_window uses that. It takes one snapshot table (S, n, d) and each
row's window as t table rows, runs per-snapshot work (node scores, spatial
edges) once per snapshot and per-window work (temporal edges, inter stage,
readout) once per distinct window, BLOCK windows at a time, and returns
the embeddings with their hand-written backward, or with grad=False none
and nothing kept for one; a backward runs once. The reference for any
incidence matrix is encode(X, H) in tests/oracle.py; encode_window must
agree with it on every row, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EncoderParams:
    """Learnable arrays plus the fixed head count K."""

    K: int
    d: int
    d_model: int
    W: list = field(default_factory=list)    # K of (d, d_h)
    a: list = field(default_factory=list)    # K of (d_h, 1)
    b: list = field(default_factory=list)    # K of (d_h, 1)
    Wo: np.ndarray = None                    # (K*d_h, d_model)
    bo: np.ndarray = None                    # (1, d_model)

    @property
    def d_h(self) -> int:
        return self.d // self.K

    def tensors(self) -> dict[str, np.ndarray]:
        """Named parameters, head order 1..K; keys match the checkpoint names."""
        out: dict[str, np.ndarray] = {}
        for h in range(self.K):
            out[f"enc.W.h{h + 1}"] = self.W[h]
            out[f"enc.a.h{h + 1}"] = self.a[h]
            out[f"enc.b.h{h + 1}"] = self.b[h]
        out["enc.Wo"] = self.Wo
        out["enc.bo"] = self.bo
        return out


def init_encoder(d: int, K: int, d_model: int,
                 rng: np.random.Generator | None = None) -> EncoderParams:
    if K < 1 or d < 1 or d_model < 1:
        raise ValueError(f"bad encoder dims d={d}, K={K}, d_model={d_model}")
    if d % K != 0:
        raise ValueError(f"d={d} not divisible by K={K}; pad the features first")
    rng = rng or np.random.default_rng(0)
    d_h = d // K
    p = EncoderParams(K=K, d=d, d_model=d_model)
    for _ in range(K):
        p.W.append(rng.normal(0.0, (1.0 / d) ** 0.5, (d, d_h)))
        p.a.append(rng.normal(0.0, (1.0 / d_h) ** 0.5, (d_h, 1)))
        p.b.append(rng.normal(0.0, (1.0 / d_h) ** 0.5, (d_h, 1)))
    p.Wo = rng.normal(0.0, (1.0 / d) ** 0.5, (d, d_model))
    p.bo = np.zeros((1, d_model))
    return p


# The critic's window grid: window v of V distinct windows reads table rows
# win[v] (t of them), so its nodes form a (V, t, n, .) grid, node (i, tau)
# at row tau*n + i. A hyperedge family is the set of grid lines along one
# axis, its member axis: spatial edges (one per window step, so one per
# snapshot) gather the n intersections along axis 2, temporal edges (one
# per intersection of a window) gather the t steps along axis 1. Edge-level
# arrays at window level are (V, E, K, c), one row per edge and head.
SPATIAL_AXIS = 2
TEMPORAL_AXIS = 1

# Grid rows (windows, or snapshots for the spatial family) per block of the
# pooling, the readout and the backward's grid gathers: none of them builds
# a whole (V, t, n, d) grid or (V, t*n, d_model) readout.
BLOCK = 32


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _pool(w: np.ndarray, V: np.ndarray, axis: int) -> np.ndarray:
    """Per edge and head k, sum over members of w[node, k] * V[node, :].

    w is (B, t, n, K), V is (B, t, n, c); the result is (B, E, K, c).
    """
    return np.moveaxis(w, axis, -1) @ np.moveaxis(V, axis, 2)


def _to_nodes(w: np.ndarray, Ee: np.ndarray, axis: int) -> np.ndarray:
    """Per node, w[node, :] @ Ee[edge of node]: (B, t, n, c) from (B, E, k, c)."""
    return np.moveaxis(np.moveaxis(w, axis, 2) @ Ee, 2, axis)


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum values[j] into row index[j] of a zero (size, ...) array, in index
    order; values is index.shape + row shape. Far faster than np.add.at."""
    flat = index.reshape(-1)
    c = math.prod(values.shape[index.ndim:])
    cell = (flat[:, None] * c + np.arange(c)).reshape(-1)
    return np.bincount(cell, values.reshape(-1), size * c).reshape(
        (size,) + values.shape[index.ndim:])


def _by_block(fn, shape) -> np.ndarray:
    """A new array of `shape` whose rows blk are fn(blk), block by block."""
    out = np.empty(shape)
    for i in range(0, shape[0], BLOCK):
        out[i:i + BLOCK] = fn(slice(i, i + BLOCK))
    return out


def encode_window(snapshots, windows, params: EncoderParams,
                  spatial: bool = True, temporal: bool = True,
                  uniform: bool = False, grad: bool = True):
    """Graph embeddings of a batch of critic windows, and their backward.

    Row r's g is what the reference encode(X, H) of tests/oracle.py returns
    for X = snapshots[windows[r]].reshape(t*n, d) and the (n, t) window
    incidence (its spatial or temporal columns alone when a family is off).
    Node scores and spatial edges run once per snapshot; temporal edges, the
    inter stage (a softmax over a node's own edges; beta = 1 with one
    family) and the max readout once per distinct window. Each edge
    embedding is projected once, Z[edge] @ Wo_k, since the node output
    sum_f beta_f * Z[edge_f] feeds only the linear Wo. Pooling and readout
    walk the grid BLOCK rows at a time, and the call keeps only what its
    backward reads: the attention weights, the pooled and projected edges
    (spatial ones per snapshot) and each readout's first maximal node; the
    backward gathers grid rows again, block by block, and lets the pooled
    edges go once dW has read them. It sums the gradients of a window's
    rows and of a snapshot's windows into every enc.* array.

    Args:
        snapshots: (S, n, d) node features of n intersections per snapshot.
        windows: (B, t) integers, each row's t snapshots oldest first.
        params: encoder parameters; d must equal params.d.
        spatial, temporal: which hyperedge families the graph has.
        uniform: replace both attention stages with plain averaging.
        grad: False for no backward: each family's pooled edges go as soon
            as Z is projected from them, and g is the same to the byte.

    Returns:
        (g, backward). g, (B, d_model): each row's max over its window's
        nodes; a tied maximum takes its gradient at the first node, as the
        oracle's does. backward(dg) gives the gradients for dg = d loss / d g
        by enc.* name, in params.tensors() order, leaving out enc.a.* and
        enc.b.* where uniform attention has none and enc.b.* where one
        family leaves beta = 1. It runs once: a second call raises
        RuntimeError. With grad=False the backward is None.
    """
    X = np.asarray(snapshots, dtype=np.float64)
    windows = np.asarray(windows)
    K, d, d_h, d_model = params.K, params.d, params.d_h, params.d_model
    if X.ndim != 3 or X.shape[2] != d:
        raise ValueError(f"snapshots shape {X.shape} is not (S, n, {d})")
    S, n, _ = X.shape
    if (windows.ndim != 2 or windows.shape[1] < 1 or windows.dtype.kind not in "iu"
            or windows.size and not 0 <= windows.min() <= windows.max() < S):
        raise ValueError(f"windows must be (B, t >= 1) integer rows in [0, {S}), "
                         f"got {windows.dtype} {windows.shape}")
    axes = [ax for ax, on in ((SPATIAL_AXIS, spatial), (TEMPORAL_AXIS, temporal))
            if on]
    if not axes:
        raise ValueError("at least one hyperedge family must stay enabled")
    win, row_win = np.unique(windows, axis=0, return_inverse=True)
    (V, t), row_win = win.shape, row_win.reshape(-1)
    W = np.stack(params.W)                                    # (K, d, d_h)
    a = np.stack([v[:, 0] for v in params.a])                 # (K, d_h)
    b = np.stack([v[:, 0] for v in params.b])
    Wo = params.Wo.reshape(K, d_h, d_model)                   # head k's rows
    learned_beta = not uniform and len(axes) == 2
    if not uniform:
        wa = np.einsum("kdh,kh->dk", W, a)                    # x.W_k.a_k = x.wa_k
        s = (X.reshape(S * n, d) @ wa).reshape(S, n, K)

    # A family works on grids of table rows, one per spatial edge (S, 1, n, d)
    # or per window (V, t, n, d), gathered one block of rows at a time; its
    # edge arrays are (E, K, .), E = S or V*n. up() lifts them (or the rows
    # blk of them) to window level (V, E_f, K, .), down() sums back.
    rows = {SPATIAL_AXIS: np.arange(S)[:, None], TEMPORAL_AXIS: win}

    def up(ax, A, blk=slice(None)):
        return A[win[blk]] if ax == SPATIAL_AXIS else A.reshape(V, n, *A.shape[1:])[blk]

    def down(ax, A):
        return _scatter(win, A, S) if ax == SPATIAL_AXIS else A.reshape(-1, *A.shape[2:])

    alpha = [np.full((*rows[ax].shape, n, K), 1.0 / (t if ax == TEMPORAL_AXIS else n))
             if uniform else _softmax(s[rows[ax]], ax) for ax in axes]
    # a grid row pools into al.shape[3 - ax] edges of al.shape[ax] members;
    # only the backward's dW reads them again once Z is projected
    Xe, Z = [], []
    for al, ax in zip(alpha, axes):
        Xe.append(_by_block(lambda blk: _pool(al[blk], X[rows[ax][blk]], ax),
                            (len(al), al.shape[3 - ax], K, d)).reshape(-1, K, d))
        Z.append(np.einsum("ekd,kdh->ekh", Xe[-1], W, optimize=True))
        if not grad:
            Xe.pop()
    M = [np.einsum("ekh,khm->ekm", z, Wo, optimize=True) for z in Z]
    if learned_beta:
        u = [np.expand_dims(up(ax, (z * b).sum(-1)), ax)
             for z, ax in zip(Z, axes)]
        beta = _softmax(np.stack(np.broadcast_arrays(*u)), 0)
    else:
        beta = np.full((len(axes), V, t, n, K), 1.0 / len(axes))
    # each block's max readout and argmax's first node at each maximum, from
    # a max over the node axis, far faster in numpy than argmax across it
    top, first = np.empty((V, d_model)), np.empty((V, d_model), dtype=np.intp)
    rank = np.arange(t * n, 0, -1, dtype=np.min_scalar_type(t * n))[:, None]
    for i in range(0, V, BLOCK):
        blk = slice(i, i + BLOCK)
        Y = params.bo + sum(_to_nodes(beta[f, blk], up(ax, M[f], blk), ax)
                            for f, ax in enumerate(axes))
        Y = Y.reshape(-1, t * n, d_model)
        top[blk] = Y.max(axis=1)
        first[blk] = t * n - ((Y == top[blk, None]) * rank).max(axis=1)

    def backward(dg):
        if not Xe:
            raise RuntimeError("encode_window's backward runs once; its pooled rows are gone")
        dY = np.zeros((V, t * n, d_model))
        np.put_along_axis(dY, first[:, None], _scatter(row_win, dg, V)[:, None], axis=1)
        dY = dY.reshape(V, t, n, d_model)
        dM = [down(ax, _pool(beta[f], dY, ax)) for f, ax in enumerate(axes)]
        dWo = sum(np.einsum("ekh,ekm->khm", z, dm, optimize=True)
                  for z, dm in zip(Z, dM))
        dZ = [np.einsum("ekm,khm->ekh", dm, Wo, optimize=True) for dm in dM]
        if learned_beta:
            dbeta = np.stack([_to_nodes(dY, np.swapaxes(up(ax, M[f]), 2, 3), ax)
                              for f, ax in enumerate(axes)])
            dv = beta * (dbeta - (beta * dbeta).sum(0))
            du = [down(ax, dv[f].sum(ax)) for f, ax in enumerate(axes)]
            dZ = [dz + duf[..., None] * b for dz, duf in zip(dZ, du)]
            db = list(sum(np.einsum("ek,ekh->kh", duf, z)
                          for duf, z in zip(du, Z))[..., None])
        else:
            db = [None] * K
        dW = sum(np.einsum("ekd,ekh->kdh", xe, dz, optimize=True)
                 for xe, dz in zip(Xe, dZ))
        Xe.clear()                      # dW read them last; dxe is as large
        if uniform:
            da = [None] * K
        else:
            ds = 0.0
            for al, dz, ax in zip(alpha, dZ, axes):
                dxe = np.einsum("ekh,kdh->ekd", dz, W, optimize=True)
                dxe = dxe.reshape(len(al), al.shape[3 - ax], K, d).swapaxes(2, 3)
                # each grid row's nodes against its edges, as _to_nodes
                # gives them, the grid gathered again block by block
                dal = np.moveaxis(_by_block(
                    lambda blk: np.moveaxis(X[rows[ax][blk]], ax, 2) @ dxe[blk],
                    (len(al), al.shape[3 - ax], al.shape[ax], K)), 2, ax)
                dal = al * (dal - (al * dal).sum(ax, keepdims=True))
                ds = ds + _scatter(rows[ax], dal, S)            # (S, n, K)
            dwa = X.reshape(S * n, d).T @ ds.reshape(S * n, K)
            dW += np.einsum("dk,kh->kdh", dwa, a)
            da = list(np.einsum("kdh,dk->kh", W, dwa)[..., None])
        grads = [g for h in range(K) for g in (dW[h], da[h], db[h])]
        grads += [dWo.reshape(K * d_h, d_model), dg.sum(0, keepdims=True)]
        return {name: np.ascontiguousarray(g)
                for name, g in zip(params.tensors(), grads) if g is not None}

    return top[row_win], backward if grad else None
