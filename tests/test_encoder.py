"""Dual-stage attention encoder tests with independent loop oracles."""

import numpy as np
import pytest

from stdsh import autodiff as ad
from stdsh.autodiff import Tensor
from stdsh.encoder import (
    EncoderParams,
    encode,
    encode_window,
    hyperedge_embed,
    init_encoder,
    inter_attention,
    intra_attention,
)
from stdsh.hypergraph import build_st_hypergraph, spatial_only, temporal_only


def manual_encode(X, H, p):
    """Plain-numpy loop re-implementation of the encoder forward pass."""
    N, E = H.shape
    heads = []
    for h in range(p.K):
        Xh = X @ p.W[h].data
        s = (Xh @ p.a[h].data).ravel() / p.tau
        alpha = np.zeros((N, E))
        for e in range(E):
            mem = np.nonzero(H[:, e])[0]
            ex = np.exp(s[mem] - s[mem].max())
            alpha[mem, e] = ex / ex.sum()
        Z = np.zeros((E, p.d_h))
        for e in range(E):
            for i in range(N):
                Z[e] += alpha[i, e] * Xh[i]
        ts = (Z @ p.b[h].data).ravel() / p.tau
        beta = np.zeros((N, E))
        for i in range(N):
            inc = np.nonzero(H[i])[0]
            ex = np.exp(ts[inc] - ts[inc].max())
            beta[i, inc] = ex / ex.sum()
        heads.append(beta @ Z)
    Y = np.hstack(heads) @ p.Wo.data + p.bo.data
    return Y, Y.max(axis=0, keepdims=True)


def _params_with(values, d, K, d_model, tau=1.0):
    rng = np.random.default_rng(values)
    return init_encoder(d, K, d_model, tau=tau, rng=rng)


def test_intra_single_member_edge():
    H = np.array([[1.0, 1.0], [0.0, 1.0]])  # edge 0 has one member
    Xh = Tensor(np.array([[0.4], [-1.0]]))
    a = Tensor(np.array([[2.0]]))
    alpha = intra_attention(Xh, H, a, 1.0).data
    assert alpha[0, 0] == pytest.approx(1.0)
    assert alpha[1, 0] == 0.0


def test_intra_equal_scores_split():
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[1.0], [1.0]]))
    alpha = intra_attention(Xh, H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(alpha[:, 0], [0.5, 0.5], atol=1e-15)


def test_intra_hand_softmax():
    # scores [0, ln 2] at tau=1 -> [1/3, 2/3]
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[0.0], [np.log(2.0)]]))
    alpha = intra_attention(Xh, H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(alpha[:, 0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_intra_rejects_empty_edge():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        intra_attention(Tensor(np.zeros((2, 1))), H, Tensor(np.ones((1, 1))), 1.0)


def test_embed_onehot_and_midpoint():
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[0.0], [2.0]]))
    onehot = Tensor(np.array([[0.0], [1.0]]))
    assert hyperedge_embed(onehot, Xh).data[0, 0] == 2.0
    half = Tensor(np.array([[0.5], [0.5]]))
    assert hyperedge_embed(half, Xh).data[0, 0] == pytest.approx(1.0)


def test_embed_matches_loop_oracle():
    rng = np.random.default_rng(2)
    Xh = rng.normal(size=(4, 3))
    alpha = rng.random((4, 1))
    alpha /= alpha.sum()
    z = hyperedge_embed(Tensor(alpha), Tensor(Xh)).data
    expect = np.zeros(3)
    for i in range(4):
        expect += alpha[i, 0] * Xh[i]
    assert np.allclose(z[0], expect, atol=1e-14)
    # convex combination: each coordinate within member bounds
    assert np.all(z[0] <= Xh.max(axis=0) + 1e-12)
    assert np.all(z[0] >= Xh.min(axis=0) - 1e-12)


def test_inter_equal_scores():
    hg = build_st_hypergraph(1, 1)
    Z = Tensor(np.array([[1.0], [1.0]]))
    beta = inter_attention(Z, hg.H, Tensor(np.array([[3.0]])), 1.0).data
    assert np.allclose(beta[0], [0.5, 0.5], atol=1e-15)


def test_inter_hand_softmax():
    # edge scores [0, ln 3] -> [0.25, 0.75]
    hg = build_st_hypergraph(1, 1)
    Z = Tensor(np.array([[0.0], [np.log(3.0)]]))
    beta = inter_attention(Z, hg.H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(beta[0], [0.25, 0.75], atol=1e-12)


def test_inter_high_temperature_uniform():
    hg = build_st_hypergraph(1, 1)
    Z = Tensor(np.array([[5.0], [-2.0]]))
    beta = inter_attention(Z, hg.H, Tensor(np.array([[1.0]])), 1e9).data
    assert np.allclose(beta[0], [0.5, 0.5], atol=1e-8)


def test_inter_rejects_isolated_node():
    H = np.array([[1.0], [0.0]])  # node 1 belongs to no hyperedge
    with pytest.raises(ValueError):
        inter_attention(Tensor(np.zeros((1, 1))), H, Tensor(np.ones((1, 1))), 1.0)


def test_encode_single_node_returns_row():
    hg = build_st_hypergraph(1, 1)
    p = _params_with(9, d=4, K=2, d_model=3)
    X = np.random.default_rng(1).normal(size=(1, 4))
    Y, g = encode(X, hg.H, p)
    assert np.array_equal(Y.data[0], g.data[0])


def test_encode_identity_chain():
    # one node, one head, every weight 1, bias 0: g collapses to the input
    p = EncoderParams(K=1, d=1, d_model=1, tau=1.0)
    p.W = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.a = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.b = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.Wo = Tensor(np.ones((1, 1)), requires_grad=True)
    p.bo = Tensor(np.zeros((1, 1)), requires_grad=True)
    hg = build_st_hypergraph(1, 1)
    for c in (-2.0, 0.0, 1.7):
        _, g = encode(np.array([[c]]), hg.H, p)
        assert g.data[0, 0] == pytest.approx(c, abs=1e-15)


def test_encode_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for n, t, K in [(2, 3, 1), (3, 2, 2), (4, 5, 4)]:
        d = 4 * K
        hg = build_st_hypergraph(n, t)
        p = init_encoder(d, K, 6, tau=0.7, rng=rng)
        X = rng.normal(size=(n * t, d))
        Y, g = encode(X, hg.H, p)
        Ym, gm = manual_encode(X, hg.H, p)
        assert np.allclose(Y.data, Ym, atol=1e-10)
        assert np.allclose(g.data, gm, atol=1e-10)


def test_normalization_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        t = int(rng.integers(1, 7))
        K = int(rng.choice([1, 2, 4]))
        d = K * int(rng.integers(1, 5))
        hg = build_st_hypergraph(n, t)
        p = init_encoder(d, K, 5, rng=rng)
        X = Tensor(rng.normal(size=(n * t, d)))
        for h in range(K):
            Xh = ad.matmul(X, p.W[h])
            alpha = intra_attention(Xh, hg.H, p.a[h], p.tau).data
            assert np.all(np.abs(alpha.sum(axis=0) - 1.0) < 1e-12)
            assert np.all(alpha[hg.H == 0] == 0.0)
            Z = hyperedge_embed(Tensor(alpha), Xh)
            beta = inter_attention(Z, hg.H, p.b[h], p.tau).data
            assert np.all(np.abs(beta.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(beta[hg.H == 0] == 0.0)


def test_readout_permutation_invariance():
    rng = np.random.default_rng(4)
    hg = build_st_hypergraph(3, 4)
    p = init_encoder(8, 2, 5, rng=rng)
    X = rng.normal(size=(12, 8))
    _, g0 = encode(X, hg.H, p)
    for _ in range(10):
        perm = rng.permutation(12)
        _, g = encode(X[perm], hg.H[perm], p)
        assert np.max(np.abs(g.data - g0.data)) <= 1e-12


def test_score_shift_invariance_and_scale_sensitivity():
    hg = build_st_hypergraph(2, 2)
    rng = np.random.default_rng(8)
    p = init_encoder(4, 1, 3, rng=rng)
    X = Tensor(rng.normal(size=(4, 4)))
    Xh = ad.matmul(X, p.W[0])
    alpha = intra_attention(Xh, hg.H, p.a[0], p.tau).data
    # additive shift of every node score leaves both softmax stages unchanged
    s = ad.matmul(Xh, p.a[0])
    S = ad.matmul(ad.add(s, Tensor(np.full((4, 1), 11.0))), Tensor(np.ones((1, 4))))
    alpha_shift = ad.masked_softmax(S, hg.H > 0, axis=0).data
    assert np.allclose(alpha, alpha_shift, atol=1e-12)
    # multiplicative scaling of a changes alpha (scores are not all equal)
    doubled = EncoderParams(K=1, d=4, d_model=3, tau=p.tau)
    doubled.W = p.W
    doubled.a = [Tensor(p.a[0].data * 2.0)]
    doubled.b = p.b
    doubled.Wo = p.Wo
    doubled.bo = p.bo
    alpha2 = intra_attention(Xh, hg.H, doubled.a[0], p.tau).data
    assert not np.allclose(alpha, alpha2, atol=1e-6)


def test_uniform_mode_is_plain_averaging():
    rng = np.random.default_rng(19)
    hg = build_st_hypergraph(3, 2)
    p = init_encoder(4, 2, 5, rng=rng)
    X = rng.normal(size=(6, 4))
    Y, g = encode(X, hg.H, p, uniform=True)
    # oracle: averages instead of attention
    heads = []
    for h in range(p.K):
        Xh = X @ p.W[h].data
        alpha = hg.H / hg.H.sum(axis=0, keepdims=True)
        Z = alpha.T @ Xh
        beta = hg.H / hg.H.sum(axis=1, keepdims=True)
        heads.append(beta @ Z)
    Ym = np.hstack(heads) @ p.Wo.data + p.bo.data
    assert np.allclose(Y.data, Ym, atol=1e-12)
    assert np.allclose(g.data, Ym.max(axis=0, keepdims=True), atol=1e-12)


def test_encoder_gradients_finite_difference():
    # scalar loss of g, checked over every parameter tensor via the verifier:
    # the probed tensor IS the parameter object, so the tape sees it as a leaf
    rng = np.random.default_rng(12)
    hg = build_st_hypergraph(2, 3)
    p = init_encoder(4, 2, 3, rng=rng)
    X = rng.normal(size=(6, 4))
    v = rng.normal(size=(3, 1))

    def loss(_t):
        _, g = encode(X, hg.H, p)
        return ad.reduce_sum(ad.matmul(g, Tensor(v)))

    for name, param in p.tensors().items():
        err = ad.finite_diff_check(loss, param, eps=1e-5)
        assert err <= 1e-4, f"{name}: fd error {err}"


def test_encode_rejects_mismatched_width():
    hg = build_st_hypergraph(2, 2)
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError):
        encode(np.zeros((4, 6)), hg.H, p)


def test_init_rejects_indivisible_width():
    with pytest.raises(ValueError):
        init_encoder(5, 2, 4)
    with pytest.raises(ValueError):
        init_encoder(4, 2, 4, tau=0.0)


# ------------------------------------------------ fused window encoder

# (spatial, temporal, uniform): the full critic and its three ablations
WINDOW_CONFIGS = {"full": (True, True, False), "no_dsha": (True, True, True),
                  "no_spatial": (False, True, False),
                  "no_temporal": (True, False, False)}


def _window_incidence(n, t, spatial, temporal):
    hg = build_st_hypergraph(n, t)
    if not spatial:
        return temporal_only(hg)
    if not temporal:
        return spatial_only(hg)
    return hg.H


def _grads(p):
    """enc.* gradients; an untouched tensor counts as a zero gradient."""
    return {name: np.zeros_like(q.data) if q.grad is None else q.grad.copy()
            for name, q in p.tensors().items()}


@pytest.mark.parametrize("n,t", [(6, 5), (3, 4)])
@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_matches_per_row_encode(config, n, t):
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    rng = np.random.default_rng(40 + n)
    p = init_encoder(8, 4, 6, tau=0.7, rng=rng)
    X = rng.normal(size=(5, n * t, 8))
    v = Tensor(rng.normal(size=(6, 1)))
    H = _window_incidence(n, t, spatial, temporal)

    ad.clear_tape()
    rows = [encode(x, H, p, uniform=uniform)[1] for x in X]
    oracle = ad.concat(rows, axis=0)
    ad.backward(ad.reduce_sum(ad.matmul(oracle, v)))
    want = _grads(p)
    for q in p.tensors().values():
        q.zero_grad()

    g = encode_window(X, n, t, p, spatial=spatial, temporal=temporal,
                      uniform=uniform)
    assert g.shape == (5, 6)
    assert np.max(np.abs(g.data - oracle.data)) <= 1e-12
    ad.backward(ad.reduce_sum(ad.matmul(g, v)))
    got = _grads(p)
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_gradients_finite_difference(config):
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    rng = np.random.default_rng(13)
    p = init_encoder(4, 2, 3, rng=rng)
    X = rng.normal(size=(2, 6, 4))
    v = Tensor(rng.normal(size=(3, 1)))

    def loss(_t):
        g = encode_window(X, 2, 3, p, spatial=spatial, temporal=temporal,
                          uniform=uniform)
        return ad.reduce_sum(ad.matmul(g, v))

    for name, param in p.tensors().items():
        err = ad.finite_diff_check(loss, param, eps=1e-5)
        assert err <= 1e-6, f"{name}: fd error {err}"


def test_encode_window_records_nothing_without_grad():
    rng = np.random.default_rng(5)
    p = init_encoder(4, 2, 3, rng=rng)
    ad.clear_tape()
    with ad.no_grad():
        g = encode_window(rng.normal(size=(3, 6, 4)), 3, 2, p)
    assert len(ad._tape()) == 0
    assert not g.track


def test_encode_window_tie_routes_gradient_to_first_node():
    # Wo = 0 makes every node's output exactly bo: each coordinate of g is an
    # N-way tie, and d loss/d Wo must come from node 0's head outputs alone
    rng = np.random.default_rng(6)
    n, t, d = 3, 2, 4
    p = init_encoder(d, 2, d, rng=rng)
    X = rng.normal(size=(2, n * t, d))
    bo = p.bo.data.copy()
    p.Wo.data = np.eye(d)
    p.bo.data = np.zeros((1, d))
    heads = np.stack([encode(x, build_st_hypergraph(n, t).H, p)[0].data
                      for x in X])                     # (B, N, d) per node
    assert np.ptp(heads, axis=1).min() > 0          # nodes differ
    p.Wo.data = np.zeros((d, d))
    p.bo.data = bo
    g = encode_window(X, n, t, p)
    assert np.array_equal(g.data, np.repeat(bo, 2, axis=0))
    up = rng.normal(size=(2, d))
    ad.backward(ad.reduce_sum(ad.mul(g, Tensor(up))))
    assert np.allclose(p.Wo.grad, heads[:, 0, :].T @ up, atol=1e-14)
    assert np.array_equal(p.bo.grad, up.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("shape", [(2, 5, 4), (2, 6, 6), (6, 4)])
def test_encode_window_rejects_a_batch_off_the_grid(shape):
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError) as err:
        encode_window(np.zeros(shape), 3, 2, p)
    assert str(shape) in str(err.value)
    assert "(B, 6, 4)" in str(err.value)


def test_encode_window_needs_a_hyperedge_family():
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError):
        encode_window(np.zeros((1, 6, 4)), 3, 2, p, spatial=False,
                      temporal=False)
