"""A small reverse-mode autodiff engine over numpy arrays.

Every ``Tensor`` wraps a float64 ndarray; operations build a tape of
parent links, each with a function that maps the node's gradient to
that parent's share.  Calling ``backward()`` on a scalar node
topologically sorts the tape and accumulates gradients into ``.grad``
for every tensor that requires them.  Constant operands (numbers, plain
arrays, tensors with neither ``requires_grad`` nor parents) are pruned
from the tape: no gradient is computed for them and they receive no
``.grad``.  Broadcasting follows numpy semantics; gradients are summed
back over broadcast axes.

The node set is what the package calls: ``add``, ``mul``, ``tsum`` /
``tmean``, ``reshape`` and ``gather_rows``, and for the MLPs ``linear``
(``x @ w + b``), ``leaky_relu`` and ``softmax``.  ``node(data, *links)``
makes a node from a value and one gradient function per parent; each
loss term in ``losses`` is one such node with a closed-form gradient.
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
            t, expanded = stack.pop()
            if expanded:
                topo.append(t)
                continue
            if t in visited:
                continue
            visited.add(t)
            stack.append((t, True))
            for p in t._parents:
                if p not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            g = t.grad
            if g is not None:
                for p, fn in zip(t._parents, t._grad_fns):
                    p._accumulate(fn(g), g)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def node(data, *links):
    """A node of value ``data`` over ``(parent, grad_fn)`` links, where
    ``grad_fn`` maps the node's gradient to that parent's share.  Only the
    parents a gradient must reach stay on the tape: those that require
    one or have parents of their own."""
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
    return node(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                (b, lambda g: _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def linear(x, w, b):
    """Affine layer ``x @ w + b`` for a batch x (B, n_in), w (n_in, n_out)
    and b (n_out,), as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    return node(x.data @ w.data + b.data, (x, lambda g: g @ w.data.T),
                (w, lambda g: x.data.T @ g), (b, lambda g: g.sum(axis=0)))


# -- nonlinearities -----------------------------------------------------------


def leaky_relu(a, alpha=0.01):
    a = as_tensor(a)
    pos = a.data > 0
    return node(np.where(pos, a.data, alpha * a.data),
                (a, lambda g: g * np.where(pos, 1.0, alpha)))


def softmax(a, axis=-1):
    """Numerically stable softmax s, with the gradient s (g - sum(g s))."""
    a = as_tensor(a)
    e = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)
    return node(s, (a, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True))))


# -- reductions and shape ops ------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    return node(a.data.sum(axis=axis, keepdims=keepdims),
                (a, lambda g: g if axis is None or keepdims else np.expand_dims(g, axis)))


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])
    return mul(tsum(a, axis, keepdims), 1.0 / float(n))


def reshape(a, shape):
    a = as_tensor(a)
    return node(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


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

    return node(a.data[rows, idx], (a, scatter))
