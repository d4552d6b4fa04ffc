"""Pose evaluation: ADD, ADD-S, average recall, and prediction helpers.

``evaluate_pose`` scores a whole stack of poses in one call.  The O(N^2)
ADD-S is computed only on symmetric models, whose hit decision uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError
from .geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
    compose_pose,
)
from .network import ROT6D_IDENTITY

HIT_FACTOR = 0.1  # hit when distance < 10% of the object diameter


@dataclass(frozen=True)
class EvalRecord:
    """Scores with the leading shape of the evaluated poses: 0-d for one
    pose, (B,) for a stack.  ``add_s`` is None on an asymmetric model."""

    add: np.ndarray
    add_s: np.ndarray | None
    hit: np.ndarray


def evaluate_pose(pred: Pose, gt: Pose, model: ObjectModel) -> EvalRecord:
    """ADD, and ADD-S on a symmetric model, of predicted against
    ground-truth poses; a pose hits when ADD-S (symmetric) or ADD is below
    ``HIT_FACTOR`` times the model diameter.  ADD-S is the exact mean
    closest-point distance, one pose at a time: the largest temporary is
    one pose's (3, N, N) coordinate differences."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    a, b = np.broadcast_arrays(apply_pose(pred, model.points), apply_pose(gt, model.points))
    add = np.linalg.norm(a - b, axis=-1).mean(axis=-1)
    threshold = HIT_FACTOR * model.diameter
    if not model.is_symmetric:
        return EvalRecord(add=add, add_s=None, hit=add < threshold)
    n = len(model.points)
    add_s = np.empty(add.shape)
    for i, (ai, bi) in enumerate(zip(a.reshape(-1, n, 3), b.reshape(-1, n, 3))):
        at, bt = ai.T.copy(), bi.T.copy()     # contiguous rows are about 3x faster
        d = at[:, :, None] - bt[:, None, :]
        d *= d
        # x + y + z in the order of a sum over a last axis of three; sqrt
        # is monotone, so it may follow the min
        add_s.flat[i] = np.sqrt((d[0] + d[1] + d[2]).min(axis=1)).mean()
    return EvalRecord(add=add, add_s=add_s, hit=add_s < threshold)


def average_recall(hits):
    """Percentage of hits in a boolean array."""
    hits = np.asarray(hits, dtype=bool)
    if hits.size == 0:
        raise InvalidArgumentError("no evaluation records")
    return 100.0 * int(np.count_nonzero(hits)) / hits.size


# ---------------------------------------------------------------------------
# prediction


def predict_poses(net, observations, anchors: AnchorSet, cam: CameraIntrinsics):
    """Stack of the most-likely pose of each observation row (arg-max
    anchors + residuals) plus the raw network output.

    One ``compose_pose`` call decodes the batch.  A residual that breaks the
    pose falls back to the bare anchor, so evaluation never dies on a
    half-trained network: a depth that would be non-positive to the bin
    center, a degenerate 6D rotation to the anchor rotation.  A branch the
    network lacks contributes its only anchor with a zero residual.
    """
    obs = np.asarray(observations, dtype=float)
    with ad.no_grad():
        out = net.forward(obs)
    picks = out.picks()
    rows = np.arange(obs.shape[0])
    idx, res = [], []
    for name, absent in (("rot", ROT6D_IDENTITY), ("vx", 0.0), ("vy", 0.0), ("z", 0.0)):
        idx.append(picks.get(name, np.zeros_like(rows)))
        res.append(out.residuals[name].data[rows, idx[-1]] if name in out.residuals
                   else np.broadcast_to(absent, rows.shape + np.shape(absent)))
    rotations, translations = compose_pose(idx, res, anchors, cam)
    return Pose(rotations, translations), out


def confidence_scores(out):
    """Per-branch max classifier probability, (B,) arrays keyed by branch."""
    return {name: probs.data.max(axis=1) for name, probs in out.probs.items()}


def scalar_mae(predicted, actual):
    """Mean absolute error between two scalar sequences."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise InvalidArgumentError("MAE needs equal-length nonempty sequences")
    return float(np.abs(predicted - actual).mean())
