"""Tensor engine tests: every op against central finite differences."""

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.errors import InvalidArgumentError, ShapeError
from poseadapt.losses import LOG_EPS


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def check_grad(build, shape, seed=0, h=1e-6, tol=1e-6):
    """Compare analytic gradient of build(Tensor) against finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) + 0.5  # keep away from kinks at 0
    p = ad.parameter(x.copy())
    loss = build(p)
    loss.backward()
    num = finite_diff(lambda arr: build(ad.Tensor(arr)).item(), x.copy(), h)
    np.testing.assert_allclose(p.grad, num, atol=tol, rtol=1e-4)


class TestElementaryOps:
    def test_add_mul_broadcast(self):
        check_grad(lambda t: ad.tsum(ad.mul(ad.add(t, 2.0), t)), (3, 4))

    def test_sub_div(self):
        check_grad(lambda t: ad.tsum(ad.div(ad.sub(t, 0.1), ad.add(t, 5.0))), (4,))

    def test_exp_log_sqrt(self):
        check_grad(lambda t: ad.tsum(ad.log(ad.add(ad.exp(t), 1.0))), (6,))
        check_grad(lambda t: ad.tsum(ad.sqrt(ad.add(ad.mul(t, t), 1.0))), (6,))

    def test_abs(self):
        check_grad(lambda t: ad.tsum(ad.absolute(t)), (7,), seed=3)

    def test_leaky_relu(self):
        check_grad(lambda t: ad.tsum(ad.leaky_relu(t, 0.01)), (5,), seed=1)

    def test_mean_axis(self):
        check_grad(lambda t: ad.tsum(ad.tmean(t, axis=0)), (3, 4))
        check_grad(lambda t: ad.tmean(t), (3, 4))

    def test_reshape_swapaxes(self):
        check_grad(lambda t: ad.tsum(ad.mul(ad.reshape(t, (4, 3)), 2.0)), (3, 4))
        check_grad(lambda t: ad.tsum(ad.mul(ad.swapaxes(t, 0, 1), np.arange(12.).reshape(4, 3))), (3, 4))


class TestMatmul:
    def test_2d(self):
        w = np.random.default_rng(0).standard_normal((4, 3))
        check_grad(lambda t: ad.tsum(ad.matmul(t, w)), (2, 4))

    def test_batched_broadcast(self):
        w = np.random.default_rng(1).standard_normal((3, 5))
        check_grad(lambda t: ad.tsum(ad.matmul(t, w)), (2, 6, 4, 3))

    def test_batched_both_sides(self):
        rng = np.random.default_rng(2)
        b = ad.parameter(rng.standard_normal((2, 3, 4)))

        def build(t):
            return ad.tsum(ad.matmul(t, b))

        check_grad(build, (2, 5, 3))

    def test_linear_is_the_matmul_add_pair(self):
        """One ``linear`` node gives the bits of ``add(matmul(x, w), b)``,
        in its value and in all three gradients."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(s) for s in ((6, 4), (4, 5), (5,))]
        weights = rng.standard_normal((6, 5))

        def grads(build):
            x, w, b = (ad.parameter(a) for a in arrays)
            out = build(x, w, b)
            ad.tsum(ad.mul(out, weights)).backward()
            return [out.data, x.grad, w.grad, b.grad]

        fused = grads(ad.linear)
        pair = grads(lambda x, w, b: ad.add(ad.matmul(x, w), b))
        assert all(np.array_equal(f, p) for f, p in zip(fused, pair))
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(5)
        check_grad(lambda t: ad.tsum(ad.mul(ad.linear(t, w, b), weights)), (6, 4))

    def test_vector_cases(self):
        # 1-D operands are rejected; a vector is written as a (n, 1) column
        v = ad.parameter(np.ones(4))
        for a, b in ((np.ones((3, 4)), v), (v, np.ones((4, 3))), (v, v)):
            with pytest.raises(ShapeError):
                ad.matmul(a, b)


class TestIndexingOps:
    def test_slice_gradient(self):
        check_grad(lambda t: ad.tsum(ad.mul(t[..., :2], 3.0)), (4, 5))
        check_grad(lambda t: ad.tsum(ad.mul(t[1], np.arange(5.0))), (4, 5))
        check_grad(lambda t: ad.tsum(ad.mul(t[..., 2:], t[..., 2:])), (3, 4, 5))

    @pytest.mark.parametrize("key", [np.array([0, 0]), [1, 1], (slice(None), np.array([2, 2]))],
                             ids=["array", "list", "tuple-with-array"])
    def test_index_arrays_are_refused(self, key):
        """A repeated index would drop gradient; ``gather_rows`` is the
        way to pick rows by an index array."""
        with pytest.raises(ShapeError, match="gather_rows"):
            ad.index(ad.parameter(np.ones((3, 4))), key)

    def test_gather_rows(self):
        idx = np.array([[0, 2], [1, 1], [3, 0]])

        def build(t):
            return ad.tsum(ad.mul(ad.gather_rows(t, idx), 2.0))

        check_grad(build, (3, 4, 2))
        # duplicate indices must accumulate
        p = ad.parameter(np.ones((3, 4)))
        loss = ad.tsum(ad.gather_rows(p, np.array([[1, 1], [0, 2], [2, 2]])))
        loss.backward()
        assert p.grad[0, 1] == 2.0
        assert p.grad[2, 2] == 2.0

    def test_stack(self):
        def build(t):
            parts = [t[0], t[1], t[2]]
            return ad.tsum(ad.mul(ad.stack(parts, axis=0), 1.5))

        check_grad(build, (3, 4))

    def test_cross(self):
        b = np.random.default_rng(4).standard_normal((5, 3))
        check_grad(lambda t: ad.tsum(ad.mul(ad.cross(t, b), b + 0.3)), (5, 3))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = ad.Tensor(np.random.default_rng(5).standard_normal((6, 9)) * 3)
        s = ad.softmax(x, axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)

    def test_stable_for_huge_logits(self):
        x = ad.Tensor(np.array([[1e4, 0.0, -1e4], [5e3, 5e3, 5e3]]))
        s = ad.softmax(x, axis=1)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        w = np.random.default_rng(6).standard_normal((4, 5))
        check_grad(lambda t: ad.tsum(ad.mul(ad.softmax(t, axis=1), w)), (4, 5))


class TestBackwardContract:
    def test_sum_of_parameters_gradient_is_one(self):
        p = ad.parameter(np.random.default_rng(8).standard_normal((3, 3)))
        ad.tsum(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((3, 3)))

    def test_zero_times_anything_gives_zero_grads(self):
        p = ad.parameter(np.random.default_rng(9).standard_normal(5))
        loss = ad.tsum(ad.mul(ad.mul(p, p), 0.0))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros(5))

    def test_backward_requires_scalar(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(InvalidArgumentError):
            ad.mul(p, 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        p = ad.parameter(np.array([2.0]))
        loss = ad.add(ad.mul(p, p), ad.mul(p, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        loss = ad.tsum(loss)
        loss.backward()
        assert p.grad[0] == pytest.approx(7.0)

    def test_gradient_shares_are_not_aliased(self):
        """A share that the tape hands on unchanged (``add``) or as a view
        (``reshape``) is copied before another share is added to it."""
        def shared(t):
            u, v = ad.mul(t, 2.0), ad.mul(t, 3.0)
            return ad.tsum(ad.add(ad.add(u, v), ad.mul(u, v)))

        check_grad(shared, (2,))
        a = ad.mul(ad.parameter(np.ones((2, 3))), 2.0)
        r = ad.reshape(a, (6,))
        ad.add(ad.tsum(ad.mul(r, np.arange(6.0))), ad.tsum(ad.mul(a, 5.0))).backward()
        np.testing.assert_array_equal(r.grad, np.arange(6.0))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3) + 5.0)

    def test_no_grad_suppresses_tape(self):
        p = ad.parameter(np.ones(3))
        with ad.no_grad():
            out = ad.mul(p, 2.0)
        assert out._parents == ()

    def test_constant_subgraphs_are_pruned(self):
        a = ad.Tensor(np.ones(3))
        b = ad.mul(a, 2.0)
        assert b._parents == ()

    def test_constant_operands_are_pruned(self):
        p = ad.parameter(np.ones(3))
        c = ad.Tensor(np.full(3, 2.0))
        out = ad.add(ad.mul(p, c), LOG_EPS)
        assert out._parents[0]._parents == (p,)
        assert ad.add(p, LOG_EPS)._parents == (p,)
        ad.tsum(out).backward()
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])
        assert c.grad is None
