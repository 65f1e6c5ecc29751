"""Tape, op, and gradient-verifier tests for the numeric core."""

import numpy as np
import pytest

from stdsh import autodiff as ad
from stdsh.autodiff import Tensor


def test_matmul_shape():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 1)))
    assert ad.matmul(a, b).shape == (2, 1)


def test_matmul_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_add_zero_tensors():
    z = Tensor(np.zeros((4, 4)))
    out = ad.add(z, z)
    assert np.array_equal(out.data, np.zeros((4, 4)))


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    loss = ad.mul(x, x)
    ad.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_elementwise_sum():
    A = Tensor(np.ones((3, 2)))
    B = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    loss = ad.reduce_sum(ad.mul(A, B))
    ad.backward(loss)
    assert np.array_equal(B.grad, np.ones((3, 2)))


def test_backward_log_softmax_pick():
    # d(log softmax[j]) / d logits = onehot_j - softmax, for the picked j
    logits = np.array([[0.3, -1.2, 2.0]])
    x = Tensor(logits, requires_grad=True)
    lp = ad.masked_log_softmax(x, np.ones((1, 3), dtype=bool), axis=1)
    loss = ad.gather(lp, [0], [2])
    ad.backward(ad.reduce_sum(loss))
    p = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    closed = np.array([[0.0, 0.0, 1.0]]) - p
    assert np.allclose(x.grad, closed, atol=1e-12)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.mul(x, x)
    with pytest.raises(ValueError):
        ad.backward(y)


def test_masked_softmax_sums_and_zeros():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = Tensor(rng.normal(size=(6, 5)))
        mask = rng.random((6, 5)) < 0.6
        mask[0, :] = True  # keep every column nonempty
        p = ad.masked_softmax(x, mask, axis=0).data
        sums = p.sum(axis=0)
        assert np.all(np.abs(sums - 1.0) < 1e-12)
        assert np.all(p[~mask] == 0.0)


def test_masked_softmax_shift_invariance():
    # adding a constant to every score leaves the softmax unchanged
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    mask = np.ones((4, 3), dtype=bool)
    base = ad.masked_softmax(Tensor(x), mask, axis=0).data
    shifted = ad.masked_softmax(Tensor(x + 123.456), mask, axis=0).data
    assert np.allclose(base, shifted, atol=1e-12)


def test_masked_softmax_overflow_safe():
    p = ad.masked_softmax(Tensor(np.array([[1000.0, 1001.0]])),
                          np.ones((1, 2), dtype=bool), axis=1).data
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def _primitive_cases(rng):
    n = 4
    x = rng.uniform(-1.0, 1.0, (n, n))
    mask = rng.random((n, n)) < 0.7
    mask[0, :] = True
    mask[:, 0] = True
    w = rng.uniform(-1.0, 1.0, (n, n))
    return [
        ("matmul", lambda t: ad.reduce_sum(ad.matmul(t, Tensor(w)))),
        ("add", lambda t: ad.reduce_sum(ad.add(t, Tensor(w)))),
        ("mul", lambda t: ad.reduce_sum(ad.mul(t, Tensor(w)))),
        ("scale", lambda t: ad.reduce_sum(ad.scale(t, -2.5))),
        ("exp", lambda t: ad.reduce_sum(ad.exp(t))),
        ("tanh", lambda t: ad.reduce_sum(ad.tanh(t))),
        ("square", lambda t: ad.reduce_sum(ad.square(t))),
        ("mean", lambda t: ad.reduce_mean(t)),
        ("max0", lambda t: ad.reduce_sum(ad.reduce_max(t, axis=0))),
        ("concat", lambda t: ad.reduce_sum(ad.concat([t, ad.mul(t, t)], axis=1))),
        ("gather", lambda t: ad.reduce_sum(ad.gather(t, [0, 1, 3], [2, 2, 0]))),
        ("clip", lambda t: ad.reduce_sum(ad.clip(t, -0.5, 0.5))),
        ("minimum", lambda t: ad.reduce_sum(ad.minimum(t, Tensor(w)))),
        ("msoftmax", lambda t: ad.reduce_sum(
            ad.mul(ad.masked_softmax(t, mask, axis=0), Tensor(w)))),
        ("mlogsoftmax", lambda t: ad.reduce_sum(
            ad.mul(ad.masked_log_softmax(t, mask, axis=1), Tensor(mask * w)))),
        ("transpose", lambda t: ad.reduce_sum(ad.matmul(ad.transpose(t), Tensor(w)))),
    ], x


def test_every_primitive_matches_finite_differences():
    # random inputs in [-1, 1]; relative error within 1e-4 at eps 1e-5
    rng = np.random.default_rng(11)
    cases, x = _primitive_cases(rng)
    for name, f in cases:
        err = ad.finite_diff_check(f, Tensor(x.copy()), eps=1e-5)
        assert err <= 1e-4, f"{name}: fd error {err}"


def test_finite_diff_quadratic_tight():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])

    def f(t):
        return ad.reduce_sum(ad.mul(ad.matmul(t, Tensor(w)), t))

    err = ad.finite_diff_check(f, Tensor(np.array([[0.3, -0.7]])), eps=1e-5)
    assert err <= 1e-7


def test_finite_diff_constant_zero():
    def f(t):
        return ad.reduce_sum(ad.mul(t, Tensor(np.zeros((2, 2)))))

    err = ad.finite_diff_check(f, Tensor(np.ones((2, 2))), eps=1e-5)
    assert err == 0.0


def test_finite_diff_rejects_nonfinite():
    def f(t):
        return Tensor(np.array(np.inf))

    with pytest.raises(ValueError):
        ad.finite_diff_check(f, Tensor(np.ones(2)), eps=1e-5)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.track
    assert len(ad._tape()) == 0


def test_backward_visits_each_record_once():
    # y = x + x reuses the same leaf twice: grad must be 2, not 4
    x = Tensor(np.array(1.5), requires_grad=True)
    y = ad.add(x, x)
    ad.backward(y)
    assert x.grad == pytest.approx(2.0)


def test_minimum_tie_routes_to_first():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.minimum(a, b)))
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_tape_scope_drops_the_records_of_a_failed_forward():
    x = Tensor(np.array([0.5, -1.5]), requires_grad=True)

    def loss():
        return ad.reduce_sum(ad.square(ad.mul(x, x)))

    ad.clear_tape()
    ad.backward(loss())
    clean = x.grad.copy()
    x.zero_grad()
    with pytest.raises(ValueError):
        with ad.tape_scope():
            y = ad.mul(x, x)
            ad.add(y, Tensor(np.ones(3)))     # shape error after one record
    assert len(ad._tape()) == 0
    ad.backward(loss())
    assert np.array_equal(x.grad, clean)
