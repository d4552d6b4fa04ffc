"""Backward tests: every op of the oracle tape against central finite
differences, and the package's hand-written network backward against the
tape.

The tape (``tests/tape.py``) is the reference for the whole backward
pass, so each of its ops is checked here.  The package's own pieces are
the MLP (``MLP.__call__`` and ``MLP.backward``), the ``softmax`` and the
closed-form logit gradient of the cross-entropy over it
(``soft_cross_entropy``); each must give the tape's bits or its
gradients.
"""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError, ShapeError
from poseadapt.losses import LOG_EPS, soft_cross_entropy
from poseadapt.network import LEAK, MLP, softmax

import tape


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
    """Compare the tape's gradient of build(Tensor) against finite
    differences."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) + 0.5  # keep away from kinks at 0
    p = tape.parameter(x.copy())
    loss = build(p)
    loss.backward()
    num = finite_diff(lambda arr: build(tape.Tensor(arr)).item(), x.copy(), h)
    np.testing.assert_allclose(p.grad, num, atol=tol, rtol=1e-4)


def mlp_with_gradients(n_in, hidden, n_out, seed=0):
    """A standalone float64 MLP whose layers own their parameter and
    gradient arrays."""
    mlp = MLP(n_in, hidden, n_out)
    for layer in mlp.layers:
        layer.w, layer.b = np.empty(layer.shape), np.zeros(layer.shape[1])
        layer.gw, layer.gb = np.full_like(layer.w, np.nan), np.full_like(layer.b, np.nan)
    mlp.draw_weights(np.random.default_rng(seed))
    return mlp


class TestElementaryOps:
    def test_add_mul_broadcast(self):
        check_grad(lambda t: tape.tsum(tape.mul(tape.add(t, 2.0), t)), (3, 4))

    def test_sub_div(self):
        check_grad(lambda t: tape.tsum(tape.div(tape.sub(t, 0.1), tape.add(t, 5.0))), (4,),
                   )

    def test_exp_log_sqrt(self):
        check_grad(lambda t: tape.tsum(tape.log(tape.add(tape.exp(t), 1.0))), (6,), )
        check_grad(lambda t: tape.tsum(tape.sqrt(tape.add(tape.mul(t, t), 1.0))), (6,),
                   )

    def test_abs(self):
        check_grad(lambda t: tape.tsum(tape.absolute(t)), (7,), seed=3, )

    def test_leaky_relu(self):
        check_grad(lambda t: tape.tsum(tape.leaky_relu(t, 0.01)), (5,), seed=1)

    def test_mean_axis(self):
        check_grad(lambda t: tape.tsum(tape.tmean(t, axis=0)), (3, 4))
        check_grad(lambda t: tape.tmean(t), (3, 4))

    def test_reshape_swapaxes(self):
        check_grad(lambda t: tape.tsum(tape.mul(tape.reshape(t, (4, 3)), 2.0)), (3, 4))
        check_grad(lambda t: tape.tsum(tape.mul(tape.swapaxes(t, 0, 1),
                                                np.arange(12.).reshape(4, 3))), (3, 4), )


class TestMatmul:
    def test_2d(self):
        w = np.random.default_rng(0).standard_normal((4, 3))
        check_grad(lambda t: tape.tsum(tape.matmul(t, w)), (2, 4), )

    def test_batched_broadcast(self):
        w = np.random.default_rng(1).standard_normal((3, 5))
        check_grad(lambda t: tape.tsum(tape.matmul(t, w)), (2, 6, 4, 3), )

    def test_batched_both_sides(self):
        rng = np.random.default_rng(2)
        b = tape.parameter(rng.standard_normal((2, 3, 4)))

        def build(t):
            return tape.tsum(tape.matmul(t, b))

        check_grad(build, (2, 5, 3), )

    def test_linear_is_the_matmul_add_pair(self):
        """The tape's one-node ``linear`` and the package's MLP give the bits
        of the oracle's ``add(matmul(x, w), b)`` chain with ``leaky_relu``
        between layers, in the output and in every gradient."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        mlp = mlp_with_gradients(4, [7, 3], 5)
        weights = rng.standard_normal((6, 5))

        def grads(linear):
            xt = tape.parameter(x)
            params = [(tape.parameter(layer.w), tape.parameter(layer.b)) for layer in mlp.layers]
            out = xt
            for i, (w, b) in enumerate(params):
                out = linear(out, w, b)
                if i < len(params) - 1:
                    out = tape.leaky_relu(out, LEAK)
            tape.tsum(tape.mul(out, weights)).backward()
            return [out.data, xt.grad, *(p.grad for pair in params for p in pair)]

        pair = grads(lambda x, w, b: tape.add(tape.matmul(x, w), b))
        fused = grads(tape.linear)
        out, inputs = mlp(x, train=True)
        package = [out, mlp.backward(inputs, weights),
                   *(g for layer in mlp.layers for g in (layer.gw, layer.gb))]
        for got in (fused, package):
            assert all(np.array_equal(g, p) for g, p in zip(got, pair))
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(5)
        check_grad(lambda t: tape.tsum(tape.mul(tape.linear(t, w, b), weights)), (6, 4))

    def test_mlp_backward_against_finite_differences(self):
        """``MLP.backward``'s input gradient; without ``input_grad`` it
        returns None and still writes the parameter gradients."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3)) + 0.5
        mlp = mlp_with_gradients(3, [6], 4, seed=1)
        weights = rng.standard_normal((5, 4))
        _, inputs = mlp(x, train=True)
        got = mlp.backward(inputs, weights)
        num = finite_diff(lambda arr: float((mlp(arr, train=False)[0] * weights).sum()), x.copy())
        np.testing.assert_allclose(got, num, atol=1e-6, rtol=1e-4)
        gw = mlp.layers[0].gw.copy()
        mlp.layers[0].gw[...] = np.nan
        assert mlp.backward(inputs, weights, input_grad=False) is None
        np.testing.assert_array_equal(mlp.layers[0].gw, gw)

    def test_vector_cases(self):
        # 1-D operands are rejected; a vector is written as a (n, 1) column
        v = tape.parameter(np.ones(4))
        for a, b in ((np.ones((3, 4)), v), (v, np.ones((4, 3))), (v, v)):
            with pytest.raises(ShapeError):
                tape.matmul(a, b)


class TestIndexingOps:
    def test_slice_gradient(self):
        check_grad(lambda t: tape.tsum(tape.mul(t[..., :2], 3.0)), (4, 5), )
        check_grad(lambda t: tape.tsum(tape.mul(t[1], np.arange(5.0))), (4, 5), )
        check_grad(lambda t: tape.tsum(tape.mul(t[..., 2:], t[..., 2:])), (3, 4, 5), )

    @pytest.mark.parametrize("key", [np.array([0, 0]), [1, 1], (slice(None), np.array([2, 2]))],
                             ids=["array", "list", "tuple-with-array"])
    def test_index_arrays_are_refused(self, key):
        """A repeated index would drop gradient; ``gather_rows`` is the
        way to pick rows by an index array."""
        with pytest.raises(ShapeError, match="gather_rows"):
            tape.index(tape.parameter(np.ones((3, 4))), key)

    def test_gather_rows(self):
        idx = np.array([[0, 2], [1, 1], [3, 0]])

        def build(t):
            return tape.tsum(tape.mul(tape.gather_rows(t, idx), 2.0))

        check_grad(build, (3, 4, 2))
        # duplicate indices must accumulate
        p = tape.parameter(np.ones((3, 4)))
        loss = tape.tsum(tape.gather_rows(p, np.array([[1, 1], [0, 2], [2, 2]])))
        loss.backward()
        assert p.grad[0, 1] == 2.0
        assert p.grad[2, 2] == 2.0

    def test_stack(self):
        def build(t):
            parts = [t[0], t[1], t[2]]
            return tape.tsum(tape.mul(tape.stack(parts, axis=0), 1.5))

        check_grad(build, (3, 4), )

    def test_cross(self):
        b = np.random.default_rng(4).standard_normal((5, 3))
        check_grad(lambda t: tape.tsum(tape.mul(tape.cross(t, b), b + 0.3)), (5, 3), )


class TestSoftmax:
    """The package's row softmax, and the logit gradient of the
    cross-entropy over it."""

    def test_rows_sum_to_one(self):
        s = softmax(np.random.default_rng(5).standard_normal((6, 9)) * 3)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_stable_for_huge_logits(self):
        s = softmax(np.array([[1e4, 0.0, -1e4], [5e3, 5e3, 5e3]]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        """The oracle's softmax, a composite of ``exp``, ``sub``, ``div``
        and ``tsum``, against finite differences; the package's softmax
        gives its bits."""
        w = np.random.default_rng(6).standard_normal((4, 5))
        x = np.random.default_rng(7).standard_normal((4, 5)) * 3
        check_grad(lambda t: tape.tsum(tape.mul(tape.softmax(t, axis=1), w)), (4, 5))
        np.testing.assert_array_equal(softmax(x), tape.softmax(tape.Tensor(x), axis=1).data)

    def test_cross_entropy_logit_gradient(self):
        """``soft_cross_entropy``'s logit map against finite differences,
        and against the tape's chain ``-sum(labels * log(softmax + eps))``.
        The last row's label sits on an entry of probability ~1e-35, far
        below ``LOG_EPS``, which gets almost no gradient."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5)) * 3
        x[3] = [40.0, 0.0, -40.0, 1.0, 2.0]
        labels = np.zeros((4, 5))
        labels[:3, :3] = [0.7, 0.2, 0.1]
        labels[3, 2] = 1.0
        g = rng.uniform(0.5, 1.5, 4)
        value, back = soft_cross_entropy(softmax(x), labels)
        got = back(g)
        num = finite_diff(lambda arr: float((g * soft_cross_entropy(softmax(arr), labels)[0]).sum()),
                          x.copy())
        np.testing.assert_allclose(got, num, atol=1e-6, rtol=1e-4)
        p = tape.parameter(x)
        ce = tape.tsum(tape.mul(tape.log(tape.add(tape.softmax(p, axis=1), LOG_EPS)), labels),
                       axis=-1)
        tape.tsum(tape.mul(ce, -g)).backward()
        np.testing.assert_allclose(value, -ce.data, rtol=1e-15)
        np.testing.assert_allclose(got, p.grad, rtol=1e-12, atol=1e-15)
        assert np.abs(got[3, 2]) < 1e-20


class TestBackwardContract:
    """The oracle tape's accumulation, pruning and ``no_grad`` rules."""

    def test_sum_of_parameters_gradient_is_one(self):
        p = tape.parameter(np.random.default_rng(8).standard_normal((3, 3)))
        tape.tsum(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((3, 3)))

    def test_zero_times_anything_gives_zero_grads(self):
        p = tape.parameter(np.random.default_rng(9).standard_normal(5))
        loss = tape.tsum(tape.mul(tape.mul(p, p), 0.0))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros(5))

    def test_backward_requires_scalar(self):
        p = tape.parameter(np.ones((2, 2)))
        with pytest.raises(InvalidArgumentError):
            tape.mul(p, 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        p = tape.parameter(np.array([2.0]))
        loss = tape.add(tape.mul(p, p), tape.mul(p, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        loss = tape.tsum(loss)
        loss.backward()
        assert p.grad[0] == pytest.approx(7.0)

    def test_gradient_shares_are_not_aliased(self):
        """A share that the tape hands on unchanged (``add``) or as a view
        (``reshape``) is copied before another share is added to it."""
        def shared(t):
            u, v = tape.mul(t, 2.0), tape.mul(t, 3.0)
            return tape.tsum(tape.add(tape.add(u, v), tape.mul(u, v)))

        check_grad(shared, (2,))
        a = tape.mul(tape.parameter(np.ones((2, 3))), 2.0)
        r = tape.reshape(a, (6,))
        tape.add(tape.tsum(tape.mul(r, np.arange(6.0))), tape.tsum(tape.mul(a, 5.0))).backward()
        np.testing.assert_array_equal(r.grad, np.arange(6.0))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3) + 5.0)

    def test_no_grad_suppresses_tape(self):
        p = tape.parameter(np.ones(3))
        with tape.no_grad():
            out = tape.mul(p, 2.0)
        assert out._parents == ()

    def test_constant_subgraphs_are_pruned(self):
        a = tape.Tensor(np.ones(3))
        b = tape.mul(a, 2.0)
        assert b._parents == ()

    def test_constant_operands_are_pruned(self):
        p = tape.parameter(np.ones(3))
        c = tape.Tensor(np.full(3, 2.0))
        out = tape.add(tape.mul(p, c), LOG_EPS)
        assert out._parents[0]._parents == (p,)
        assert tape.add(p, LOG_EPS)._parents == (p,)
        tape.tsum(out).backward()
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])
        assert c.grad is None
