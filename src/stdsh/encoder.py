"""Dual-stage hypergraph attention encoder.

Per head h: project node features X (N x d) to X_h = X @ W_h (N x d_h),
score each node, softmax the scores inside every hyperedge (intra stage,
normalized over the members of each incidence column), aggregate members
into hyperedge embeddings Z, score the edges, softmax over each node's
incident edges (inter stage, normalized along incidence rows), and pull the
edge embeddings back to the nodes. Head outputs are concatenated in head
order, projected to d_model with W_o/b_o, and max-pooled over nodes into
the graph embedding g. Both softmax stages subtract the per-group max
before exponentiation and divide scores by a temperature tau.

Setting uniform=True replaces both attention stages with plain averaging
(over members / over incident edges) while keeping the projections, so the
module stays differentiable end to end.

encode(X, H) takes any incidence and records some thirty tape ops per
graph; it is the reference. The critic's graphs all share one structure:
node (i, tau) is row tau*n + i of a t x n grid, each spatial edge is a grid
row (one window step) and each temporal edge a grid column (one
intersection). encode_window uses that: it encodes a whole batch
(B, t*n, d) as one tape op with a hand-written backward, where the intra
stage is a softmax along a grid axis and the inter stage a softmax over a
node's two edges (or none, with one family). It must agree with encode on
every row, to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class EncoderParams:
    """Learnable tensors plus the fixed head count K and temperature tau."""

    K: int
    d: int
    d_model: int
    tau: float
    W: list = field(default_factory=list)    # K of (d, d_h)
    a: list = field(default_factory=list)    # K of (d_h, 1)
    b: list = field(default_factory=list)    # K of (d_h, 1)
    Wo: Tensor = None                        # (K*d_h, d_model)
    bo: Tensor = None                        # (1, d_model)

    @property
    def d_h(self) -> int:
        return self.d // self.K

    def tensors(self) -> dict[str, Tensor]:
        """Named parameters, head order 1..K; keys match the checkpoint names."""
        out: dict[str, Tensor] = {}
        for h in range(self.K):
            out[f"enc.W.h{h + 1}"] = self.W[h]
            out[f"enc.a.h{h + 1}"] = self.a[h]
            out[f"enc.b.h{h + 1}"] = self.b[h]
        out["enc.Wo"] = self.Wo
        out["enc.bo"] = self.bo
        return out


def init_encoder(d: int, K: int, d_model: int, tau: float = 1.0,
                 rng: np.random.Generator | None = None) -> EncoderParams:
    if K < 1 or d < 1 or d_model < 1:
        raise ValueError(f"bad encoder dims d={d}, K={K}, d_model={d_model}")
    if d % K != 0:
        raise ValueError(f"d={d} not divisible by K={K}; pad the features first")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    rng = rng or np.random.default_rng(0)
    d_h = d // K
    p = EncoderParams(K=K, d=d, d_model=d_model, tau=float(tau))
    for _ in range(K):
        p.W.append(Tensor(rng.normal(0.0, (1.0 / d) ** 0.5, (d, d_h)), requires_grad=True))
        p.a.append(Tensor(rng.normal(0.0, (1.0 / d_h) ** 0.5, (d_h, 1)), requires_grad=True))
        p.b.append(Tensor(rng.normal(0.0, (1.0 / d_h) ** 0.5, (d_h, 1)), requires_grad=True))
    p.Wo = Tensor(rng.normal(0.0, (1.0 / d) ** 0.5, (d, d_model)), requires_grad=True)
    p.bo = Tensor(np.zeros((1, d_model)), requires_grad=True)
    return p


def load_encoder(named: dict[str, np.ndarray], tau: float) -> EncoderParams:
    """Rebuild EncoderParams from checkpoint tensors named enc.*."""
    K = 0
    while f"enc.W.h{K + 1}" in named:
        K += 1
    if K == 0:
        raise ValueError("checkpoint holds no encoder heads")
    d, d_h = named["enc.W.h1"].shape
    d_model = named["enc.Wo"].shape[1]
    p = EncoderParams(K=K, d=d, d_model=d_model, tau=float(tau))
    for h in range(K):
        p.W.append(Tensor(named[f"enc.W.h{h + 1}"], requires_grad=True))
        p.a.append(Tensor(named[f"enc.a.h{h + 1}"].reshape(d_h, 1), requires_grad=True))
        p.b.append(Tensor(named[f"enc.b.h{h + 1}"].reshape(d_h, 1), requires_grad=True))
    p.Wo = Tensor(named["enc.Wo"], requires_grad=True)
    p.bo = Tensor(named["enc.bo"].reshape(1, d_model), requires_grad=True)
    return p


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
    N, E = H.shape
    s = ad.matmul(X_h, a_h)                       # (N, 1) node scores
    S = ad.matmul(s, Tensor(np.ones((1, E))))     # broadcast scores across columns
    S = ad.scale(S, 1.0 / tau)
    return ad.masked_softmax(S, H > 0, axis=0)


def hyperedge_embed(alpha: Tensor, X_h: Tensor) -> Tensor:
    """z_e = sum_i alpha[i,e] * x_i, one row per hyperedge."""
    return ad.matmul(ad.transpose(alpha), X_h)


def inter_attention(Z: Tensor, H: np.ndarray, b_h: Tensor, tau: float) -> Tensor:
    """Stage B: beta[i,e], softmax of edge scores over each node's edges."""
    H = _check_incidence(H)
    N, E = H.shape
    t = ad.matmul(Z, b_h)                         # (E, 1) edge scores
    T = ad.matmul(Tensor(np.ones((N, 1))), ad.transpose(t))
    T = ad.scale(T, 1.0 / tau)
    return ad.masked_softmax(T, H > 0, axis=1)


def _uniform_weights(H: np.ndarray, axis: int) -> np.ndarray:
    s = H.sum(axis=axis, keepdims=True)
    return np.divide(H, s, out=np.zeros_like(H), where=s > 0)


def encode(X, H: np.ndarray, params: EncoderParams,
           uniform: bool = False) -> tuple[Tensor, Tensor]:
    """Run the full encoder.

    Args:
        X: (N, d) node features, Tensor or array.
        H: (N, E) binary incidence; no empty edges, no isolated nodes.
        params: encoder parameters.
        uniform: replace both attention stages with uniform averaging.

    Returns:
        (Y_hat, g): per-node embeddings (N, d_model) and the graph
        embedding g (1, d_model), the coordinatewise max over nodes.
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
            alpha = Tensor(_uniform_weights(H, axis=0))
            Z = hyperedge_embed(alpha, X_h)
            beta = Tensor(_uniform_weights(H, axis=1))
        else:
            alpha = intra_attention(X_h, H, params.a[h], params.tau)
            Z = hyperedge_embed(alpha, X_h)
            beta = inter_attention(Z, H, params.b[h], params.tau)
        heads.append(ad.matmul(beta, Z))          # (N, d_h) updated nodes
    cat = heads[0] if len(heads) == 1 else ad.concat(heads, axis=1)
    Y = ad.add(ad.matmul(cat, params.Wo), params.bo)
    g = ad.reduce_max(Y, axis=0, keepdims=True)
    return Y, g


# The critic's window grid: node (i, tau) of a (B, t*n, d) batch is row
# tau*n + i, so the batch reshapes to (B, t, n, d). A hyperedge family is
# the set of grid lines along one axis, its member axis: spatial edges (one
# per window step) gather the n intersections along axis 2, temporal edges
# (one per intersection) gather the t steps along axis 1. Edge-level arrays
# are (B, E, K, c), one row per edge and head, spatial edges first as in
# the columns of build_st_hypergraph.
SPATIAL_AXIS = 2
TEMPORAL_AXIS = 1


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


def encode_window(X, n: int, t: int, params: EncoderParams,
                  spatial: bool = True, temporal: bool = True,
                  uniform: bool = False) -> Tensor:
    """Graph embeddings of a batch of critic windows, as one tape op.

    Computes, row by row, the g that encode() returns for the incidence of
    build_st_hypergraph(n, t) (spatial_only / temporal_only when a family is
    off), without building it. Intra stage: a softmax of the node scores
    along each grid line. Inter stage: a softmax over the node's own edges,
    at most one per family, so beta = 1 with one family. Per head the node
    output is sum_f beta_f * Z[edge_f]; since it feeds only the linear Wo,
    each edge embedding is projected once, Z[edge] @ Wo_k, before it is
    spread back to the nodes. The backward is written by hand and
    accumulates into every enc.* tensor.

    Args:
        X: (B, t*n, d) node features, row tau*n + i for intersection i at
            window step tau.
        n, t: intersections and window depth.
        params: encoder parameters; d must equal params.d.
        spatial, temporal: which hyperedge families the graph has.
        uniform: replace both attention stages with plain averaging.

    Returns:
        g, (B, d_model): per row the coordinatewise max over nodes; a tied
        maximum takes its gradient at the first node, as ad.reduce_max does.
    """
    X = np.asarray(X, dtype=np.float64)
    K, d, d_h, d_model = params.K, params.d, params.d_h, params.d_model
    if X.ndim != 3 or X.shape[1:] != (t * n, d):
        raise ValueError(f"X shape {X.shape} does not fit the window grid: "
                         f"expected (B, {t * n}, {d}) for t={t}, n={n}")
    axes = [ax for ax, on in ((SPATIAL_AXIS, spatial), (TEMPORAL_AXIS, temporal))
            if on]
    if not axes:
        raise ValueError("at least one hyperedge family must stay enabled")
    B = X.shape[0]
    inv = 1.0 / params.tau
    grid = X.reshape(B, t, n, d)
    W = np.stack([w.data for w in params.W])                  # (K, d, d_h)
    a = np.stack([v.data[:, 0] for v in params.a])            # (K, d_h)
    b = np.stack([v.data[:, 0] for v in params.b])
    Wo = params.Wo.data.reshape(K, d_h, d_model)              # head k's rows
    learned_beta = not uniform and len(axes) == 2
    cuts = [t] if len(axes) == 2 else []                      # families' edges

    if uniform:
        alpha = [np.full((B, t, n, K), 1.0 / grid.shape[ax]) for ax in axes]
    else:
        wa = np.einsum("kdh,kh->dk", W, a)                    # x.W_k.a_k = x.wa_k
        s = (X.reshape(B * t * n, d) @ wa).reshape(B, t, n, K) * inv
        alpha = [_softmax(s, ax) for ax in axes]
    Xe = np.concatenate([_pool(al, grid, ax) for al, ax in zip(alpha, axes)],
                        axis=1)                               # (B, E, K, d)
    Z = np.einsum("bekd,kdh->bekh", Xe, W, optimize=True)
    M = np.split(np.einsum("bekh,khm->bekm", Z, Wo, optimize=True), cuts, 1)
    if learned_beta:
        u = np.split((Z * b).sum(-1) * inv, cuts, 1)           # (B, E_f, K)
        beta = _softmax(np.stack(np.broadcast_arrays(
            *[np.expand_dims(uf, ax) for uf, ax in zip(u, axes)])), 0)
    else:
        beta = np.full((len(axes), B, t, n, K), 1.0 / len(axes))
    Y = params.bo.data + sum(_to_nodes(beta[f], M[f], ax)
                             for f, ax in enumerate(axes))
    Y = Y.reshape(B, t * n, d_model)
    inputs = [*params.W, *params.a, *params.b, params.Wo, params.bo]

    def grads(dg):
        dY = np.zeros_like(Y)
        first = np.argmax(Y, axis=1)[:, None, :]
        np.put_along_axis(dY, first, dg[:, None, :], axis=1)
        dY = dY.reshape(B, t, n, d_model)
        dM = np.concatenate([_pool(beta[f], dY, ax) for f, ax in enumerate(axes)],
                            axis=1)                           # (B, E, K, d_model)
        dWo = np.einsum("bekh,bekm->khm", Z, dM, optimize=True)
        dZ = np.einsum("bekm,khm->bekh", dM, Wo, optimize=True)
        if learned_beta:
            dbeta = np.stack([_to_nodes(dY, np.swapaxes(M[f], 2, 3), ax)
                              for f, ax in enumerate(axes)])
            dv = beta * (dbeta - (beta * dbeta).sum(0))
            du = np.concatenate([dv[f].sum(ax) for f, ax in enumerate(axes)],
                                axis=1) * inv                 # (B, E, K)
            dZ += du[..., None] * b
            db = list(np.einsum("bek,bekh->kh", du, Z)[..., None])
        else:
            db = [None] * K
        dW = np.einsum("bekd,bekh->kdh", Xe, dZ, optimize=True)
        if uniform:
            da = [None] * K
        else:
            dXe = np.split(np.einsum("bekh,kdh->bekd", dZ, W, optimize=True),
                           cuts, 1)
            ds = 0.0
            for al, dxe, ax in zip(alpha, dXe, axes):
                dal = _to_nodes(grid, np.swapaxes(dxe, 2, 3), ax)   # (B, t, n, K)
                ds = ds + al * (dal - (al * dal).sum(ax, keepdims=True))
            dwa = X.reshape(B * t * n, d).T @ (ds.reshape(B * t * n, K) * inv)
            dW += np.einsum("dk,kh->kdh", dwa, a)
            da = list(np.einsum("kdh,dk->kh", W, dwa)[..., None])
        return [*dW, *da, *db, dWo.reshape(K * d_h, d_model),
                dg.sum(0, keepdims=True)]

    return ad.custom_op(Y.max(axis=1), inputs, grads)
