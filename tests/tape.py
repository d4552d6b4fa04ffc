"""A small reverse-mode autodiff engine over numpy arrays: the gradient
oracle of the tests.

This is the general tape the package used before each loss term got its
own closed-form gradient (``poseadapt.autodiff`` keeps only the nodes the
package calls).  ``test_loss_oracle`` writes the loss terms over these
generic ops and compares every parameter gradient with the package's.

Every ``Tensor`` wraps a float64 ndarray; operations build a tape of
parent links, each with a function that maps the node's gradient to
that parent's share.  Calling ``backward()`` on a scalar node
topologically sorts the tape and accumulates gradients into ``.grad``
for every tensor that requires them.  Constant operands (numbers, plain
arrays, tensors with neither ``requires_grad`` nor parents) are pruned
from the tape: no gradient is computed for them and they receive no
``.grad``.  Broadcasting follows numpy semantics; gradients are summed
back over broadcast axes.  ``linear(x, w, b)`` is the affine layer
``x @ w + b`` as one node.
"""

from __future__ import annotations

import contextlib

import numpy as np

from poseadapt.errors import InvalidArgumentError, ShapeError

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad=False, parents=(), grad_fns=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._grad_fns = grad_fns

    # -- bookkeeping --------------------------------------------------------

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def _accumulate(self, g, upstream):
        """Add ``g``, a share of the ``upstream`` gradient, into ``.grad``.
        A first share of the right shape that owns its memory and is not
        ``upstream`` itself is taken over; any other is copied."""
        if self.grad is not None:
            self.grad += g
        elif g.shape != self.data.shape:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad = g if g.base is None and g is not upstream else np.array(g)

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
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            if g is not None:
                for p, fn in zip(node._parents, node._grad_fns):
                    p._accumulate(fn(g), g)

    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _make(data, *links):
    """A node over ``(parent, grad_fn)`` links.  Only the parents a
    gradient must reach stay on the tape: those that require one or have
    parents of their own."""
    links = [(p, fn) for p, fn in links if p.requires_grad or p._parents] if _grad_enabled else ()
    if not links:
        return Tensor(data)
    parents, fns = zip(*links)
    return Tensor(data, parents=parents, grad_fns=fns)


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
    return _make(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def matmul(a, b):
    """Matrix product of operands with at least two dimensions each;
    leading dimensions broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D or batched operands, got "
                         f"{a.data.shape} @ {b.data.shape}")
    return _make(a.data @ b.data,
                 (a, lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)),
                 (b, lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def linear(x, w, b):
    """Affine layer ``x @ w + b`` for a batch x (B, n_in), w (n_in, n_out)
    and b (n_out,), as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    return _make(x.data @ w.data + b.data, (x, lambda g: g @ w.data.T),
                 (w, lambda g: x.data.T @ g), (b, lambda g: g.sum(axis=0)))


# -- elementwise nonlinearities ---------------------------------------------


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a, lambda g: g * out))


def log(a):
    a = as_tensor(a)
    return _make(np.log(a.data), (a, lambda g: g / a.data))


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a, lambda g: g * 0.5 / out))


def absolute(a):
    a = as_tensor(a)
    return _make(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def leaky_relu(a, alpha=0.01):
    a = as_tensor(a)
    pos = a.data > 0
    return _make(np.where(pos, a.data, alpha * a.data),
                 (a, lambda g: g * np.where(pos, 1.0, alpha)))


# -- reductions and shape ops ------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    return _make(a.data.sum(axis=axis, keepdims=keepdims),
                 (a, lambda g: g if axis is None or keepdims else np.expand_dims(g, axis)))


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])
    return mul(tsum(a, axis, keepdims), 1.0 / float(n))


def reshape(a, shape):
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def swapaxes(a, ax1, ax2):
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, ax1, ax2), (a, lambda g: np.swapaxes(g, ax1, ax2)))


def index(a, key):
    """Basic indexing only (integers, slices, ``...``), so no element is
    picked twice; the gradient scatters back into the picked elements.
    Select rows by an index array with ``gather_rows``."""
    a = as_tensor(a)
    if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
        raise ShapeError("index takes basic keys only; use gather_rows for index arrays")

    def scatter(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        return buf

    return _make(a.data[key], (a, scatter))


def gather_rows(a, idx):
    """Select per-batch rows: a is (B, N, ...), idx is (B, k) -> (B, k, ...)."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    if idx.ndim != 2 or a.data.ndim < 2 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"gather_rows: incompatible shapes {a.data.shape} / {idx.shape}")
    rows = np.arange(a.data.shape[0])[:, None]

    def scatter(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (rows, idx), g)
        return buf

    return _make(a.data[rows, idx], (a, scatter))


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    return _make(np.stack([t.data for t in tensors], axis=axis),
                 *[(t, lambda g, i=i: np.take(g, i, axis=axis)) for i, t in enumerate(tensors)])


def cross(a, b):
    """Cross product along the last axis (size 3)."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(np.cross(a.data, b.data),
                 (a, lambda g: _unbroadcast(np.cross(b.data, g), a.data.shape)),
                 (b, lambda g: _unbroadcast(np.cross(g, a.data), b.data.shape)))


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
