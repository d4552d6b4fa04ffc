"""The entry point of the backward pass.

The package trains one fixed graph, and each part of it has a
hand-written gradient: ``losses`` maps the loss to head-output gradients
(of the classifier logits, the residuals and the feature) in closed form,
with the 6D decode's from ``geometry.gram_schmidt``, and ``network``
back-propagates those through the MLPs into one flat gradient buffer,
with the activations its training forward pass handed out.
``total_objective`` returns its loss as a ``Tensor`` whose ``backward()``
runs that chain, once per training step.  A forward pass with
``train=False`` keeps no activations, and its loss has no backward.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


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
        buffer.  It runs once: the loss lets go of its backward."""
        fn, self._backward = self._backward, None
        if fn is None:
            raise InvalidArgumentError("no gradient: the loss was built without gradients "
                                       "or back-propagated already")
        fn()
