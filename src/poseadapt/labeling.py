"""Supervision targets: nearest-anchor search and sparse score assignment.

A ground-truth (or pseudo) target is turned into one probability-like
score vector per classification branch: the nearest anchor gets a large
score theta1, the next k-1 nearest get theta2, everything else is zero,
and the vector sums to one.  Every helper takes one target or a stack of
them: scalars of shape (...,) against a 1-D bin array, rotations of shape
(..., 3, 3) against an (n, 3, 3) anchor stack.  ``losses.prepare_batch_supervision``
runs one nearest-anchor search per branch for a whole training set and
builds both the labels and the regression's neighbour sets from it.

``ScoreConfig`` is the ``scores`` section of the run config, read as it
is: one (theta1, theta2, k) for rotation, one shared by v_x, v_y and z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .geometry import geodesic_distances_to


@dataclass(frozen=True)
class ScoreAssignmentConfig:
    """Sparse-score parameters (theta1, theta2, k) for one target."""

    theta1: float
    theta2: float
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        if self.k == 1:
            if abs(self.theta1 - 1.0) > 1e-9:
                raise InvalidArgumentError("k = 1 requires theta1 = 1")
        else:
            if not self.theta1 > self.theta2 > 0:
                raise InvalidArgumentError("need theta1 > theta2 > 0")
        if abs(self.theta1 + (self.k - 1) * self.theta2 - 1.0) > 1e-9:
            raise InvalidArgumentError("scores must sum to 1: theta1 + (k-1)*theta2 = 1")


@dataclass(frozen=True)
class ScoreConfig:
    """The ``scores`` section: sparse labels (theta1, theta2, k) of the
    rotation branch and of the three translation branches; the regression
    loss supervises the same k nearest anchors of each branch."""

    rotation: tuple = (0.7, 0.1, 4)
    translation: tuple = (0.55, 0.075, 7)

    def branch(self, name) -> ScoreAssignmentConfig:
        """Score parameters of branch ``name`` ("rot", "vx", "vy" or "z")."""
        return ScoreAssignmentConfig(*(self.rotation if name == "rot" else self.translation))


def anchor_distances(target, anchors):
    """Distances (..., n) from each target to every anchor.

    Rotation targets use the geodesic metric against an (n, 3, 3) anchor
    stack; scalars use absolute difference against a 1-D bin array.
    """
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim == 3:
        return geodesic_distances_to(anchors, target)
    return np.abs(anchors - np.asarray(target, dtype=float)[..., None])


def nearest_anchors(target, anchors, k):
    """Indices (..., k) of the k nearest anchors, ascending distance, ties
    by index."""
    d = anchor_distances(target, anchors)
    if k > d.shape[-1]:
        raise InvalidArgumentError(f"k={k} exceeds anchor count {d.shape[-1]}")
    return np.argsort(d, axis=-1, kind="stable")[..., :k]


def score_vector(idx, n_anchors, cfg: ScoreAssignmentConfig):
    """Sparse score vectors (..., n_anchors), one per row of nearest-anchor
    indices ``idx`` (..., k) as ``nearest_anchors`` orders them."""
    if idx.shape[-1] != cfg.k:
        raise InvalidArgumentError(f"{idx.shape[-1]} nearest anchors for k={cfg.k}")
    s = np.zeros(idx.shape[:-1] + (n_anchors,))
    np.put_along_axis(s, idx, cfg.theta2, axis=-1)
    np.put_along_axis(s, idx[..., :1], cfg.theta1, axis=-1)
    return s
