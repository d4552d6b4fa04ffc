"""Pose evaluation: ADD, ADD-S, average recall, and prediction helpers."""

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
    sample_id: str
    add: float
    add_s: float
    hit: bool


def add_metric(p: Pose, gt: Pose, model: ObjectModel):
    """Mean Euclidean deviation of model points under the two poses."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    d = apply_pose(p, model.points) - apply_pose(gt, model.points)
    return float(np.linalg.norm(d, axis=1).mean())


def add_s_metric(p: Pose, gt: Pose, model: ObjectModel):
    """Mean closest-point deviation; exact O(n^2) search."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    a = apply_pose(p, model.points)
    b = apply_pose(gt, model.points)
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff * diff).sum(-1)).min(axis=1).mean())


def evaluate_pose(p: Pose, gt: Pose, model: ObjectModel, sample_id="") -> EvalRecord:
    """ADD plus ADD-S, with the hit decision using ADD-S for symmetric
    models and ADD otherwise."""
    a = add_metric(p, gt, model)
    s = add_s_metric(p, gt, model)
    dist = s if model.is_symmetric else a
    return EvalRecord(sample_id=sample_id, add=a, add_s=s,
                      hit=bool(dist < HIT_FACTOR * model.diameter))


def average_recall(records):
    """Percentage of hit records."""
    records = list(records)
    if not records:
        raise InvalidArgumentError("no evaluation records")
    return 100.0 * sum(r.hit for r in records) / len(records)


# ---------------------------------------------------------------------------
# prediction


def predict_poses(net, observations, anchors: AnchorSet, cam: CameraIntrinsics):
    """Most-likely pose per observation row (arg-max anchors + residuals)
    plus the raw network output.

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
    return [Pose(r, t) for r, t in zip(rotations, translations)], out


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
