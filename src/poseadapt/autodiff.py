"""A small reverse-mode autodiff engine over numpy arrays.

Every ``Tensor`` wraps a float64 ndarray; operations build a tape of
parent links and closure-style backward functions.  Calling
``backward()`` on a scalar node topologically sorts the tape and
accumulates gradients into ``.grad`` for every tensor that requires
them.  Broadcasting follows numpy semantics; gradients are summed back
over broadcast axes.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import InvalidArgumentError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (cheap pure-inference forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    # -- bookkeeping --------------------------------------------------------

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

    def backward(self):
        """Reverse-accumulate gradients from this scalar node."""
        if self.data.size != 1:
            raise InvalidArgumentError("backward() requires a scalar loss node")
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _make(data, parents, backward):
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic -------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(a.data / b.data, (a, b), bw)


def matmul(a, b):
    """Matrix product of operands with at least two dimensions each;
    leading dimensions broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D or batched operands, got "
                         f"{a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bw(g):
        ad, bd = a.data, b.data
        a._accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
        b._accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(out, (a, b), bw)


# -- elementwise nonlinearities ---------------------------------------------


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)

    def bw(g):
        a._accumulate(g * out)

    return _make(out, (a,), bw)


def log(a):
    a = as_tensor(a)

    def bw(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), bw)


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def bw(g):
        a._accumulate(g * 0.5 / out)

    return _make(out, (a,), bw)


def absolute(a):
    a = as_tensor(a)

    def bw(g):
        a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), bw)


def leaky_relu(a, alpha=0.01):
    a = as_tensor(a)
    pos = a.data > 0
    out = np.where(pos, a.data, alpha * a.data)

    def bw(g):
        a._accumulate(g * np.where(pos, 1.0, alpha))

    return _make(out, (a,), bw)


# -- reductions and shape ops ------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy() if np.ndim(g) else np.full_like(a.data, g))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), bw)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])
    return mul(tsum(a, axis, keepdims), 1.0 / float(n))


def reshape(a, shape):
    a = as_tensor(a)

    def bw(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a, ax1, ax2):
    a = as_tensor(a)

    def bw(g):
        a._accumulate(np.swapaxes(g, ax1, ax2))

    return _make(np.swapaxes(a.data, ax1, ax2), (a,), bw)


def index(a, key):
    """Basic slicing / integer indexing; gradient scatters back with add."""
    a = as_tensor(a)

    def bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        a._accumulate(buf)

    return _make(a.data[key], (a,), bw)


def gather_rows(a, idx):
    """Select per-batch rows: a is (B, N, ...), idx is (B, k) -> (B, k, ...)."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    if idx.ndim != 2 or a.data.ndim < 2 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"gather_rows: incompatible shapes {a.data.shape} / {idx.shape}")
    rows = np.arange(a.data.shape[0])[:, None]

    def bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (rows, idx), g)
        a._accumulate(buf)

    return _make(a.data[rows, idx], (a,), bw)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]

    def bw(g):
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return _make(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def cross(a, b):
    """Cross product along the last axis (size 3)."""
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(np.cross(b.data, g), a.data.shape))
        b._accumulate(_unbroadcast(np.cross(g, a.data), b.data.shape))

    return _make(np.cross(a.data, b.data), (a, b), bw)


# -- composites ---------------------------------------------------------------


def softmax(a, axis=-1):
    """Numerically stable softmax; the max shift is treated as a constant."""
    a = as_tensor(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, shift))
    return div(e, tsum(e, axis=axis, keepdims=True))


def norm(a, axis=-1, keepdims=False):
    """L2 norm along an axis."""
    return sqrt(tsum(mul(a, a), axis=axis, keepdims=keepdims))
