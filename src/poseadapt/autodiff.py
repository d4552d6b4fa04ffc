"""The entry point of the backward pass, and the switch that turns it off.

The package trains one fixed graph, and each part of it has a
hand-written gradient: ``losses`` maps the loss to head-output gradients
(of the classifier logits, the residuals and the feature) in closed form,
and ``network`` back-propagates those through the MLPs into one flat
gradient buffer.  ``total_objective`` returns its loss as a ``Tensor``
whose ``backward()`` runs that chain, once per training step.  Inside
``no_grad()`` a forward pass keeps no activations and makes no gradient
buffer.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import InvalidArgumentError

grad_enabled = True      # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Forward passes without gradients (cheap pure inference)."""
    global grad_enabled
    prev = grad_enabled
    grad_enabled = False
    try:
        yield
    finally:
        grad_enabled = prev


class Tensor:
    """A scalar loss value and the function that back-propagates it."""

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward

    def item(self):
        return float(self.data)

    def backward(self):
        """Write the gradient of this loss into the network's gradient
        buffer.  It runs once: the activations it needs are let go."""
        fn, self._backward = self._backward, None
        if fn is None:
            raise InvalidArgumentError("no gradient: the loss was built without gradients "
                                       "or back-propagated already")
        fn()
