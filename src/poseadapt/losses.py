"""Training losses: sparse-label cross-entropy, anchor-substituted point
matching, and the target-correlation graph regularizer.

The supervision of a training set is one ``Supervision`` of stacked arrays
(targets, sparse labels, and neighbour sets from the labels' search),
built once by ``prepare_batch_supervision`` and sliced per batch; only a
symmetric model's rotation is searched again per step.  The regression
loss sums, for each target (rotation, v_x, v_y, z) and each of its k
nearest anchors, the point-set L1 distance between the ground truth and
the ground truth with only that target replaced by the anchor's
prediction.  Each distance has a closed form, so only the rotation term
touches the model points.  The correlation regularizer pulls the batch's
feature cosine-similarity matrix toward a precomputed graph whose entry
for two depth bins is the cosine of their angle difference.

Each term (the cross-entropy, the rotation and scalar point-matching
terms, the feature graph and the correlation distance) returns its value
and a closed-form map from the gradient of that value to the gradient of
its input; the cross-entropy's input is the logits of its softmax.  The
rotation term decodes its 6D residuals with ``geometry.gram_schmidt``,
the decode of prediction, which returns its own gradient map.
``total_objective`` chains the maps.

Each term computes in the dtype of its network input, float32, except the
6D decode, which is float64: in float32 a near-parallel row can round its
orthogonal part to zero past the ``1e-12`` guard and decode to NaN.  The
float32 CTC agrees with float64 to about 1e-6.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .errors import DegenerateFeatureError, InvalidArgumentError, ShapeError
from .geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    closest_symmetric_rotation,
    gram_schmidt,
    pose_targets,
    rot6d_to_matrix,
)
from .labeling import ScoreConfig, nearest_anchors, score_vector
from .network import HeadOutput

LOG_EPS = 1e-12


# ---------------------------------------------------------------------------
# classification


def soft_cross_entropy(probs, labels):
    """Cross-entropy -sum(labels * log(probs + eps)) of softmax rows, and
    the map from its gradient to the gradient of their logits.

    With w = labels p / (p + eps), the logit gradient is p sum(w) - w: the
    softmax backward in closed form.  1-D inputs give a scalar; (B, N)
    inputs give a per-sample (B,) array.
    """
    labels = np.asarray(labels, dtype=probs.dtype)
    if probs.shape != labels.shape:
        raise ShapeError(f"probs {probs.shape} vs labels {labels.shape}")
    shifted = probs + LOG_EPS
    w = labels * probs / shifted
    return (-(np.log(shifted) * labels).sum(axis=-1),
            lambda g: g[..., None] * (probs * w.sum(axis=-1, keepdims=True) - w))


def classification_loss(out: HeadOutput, sup: Supervision):
    """Per-sample sum of branch cross-entropies against sparse labels, (B,),
    and the map to branch -> logit gradient."""
    terms = {name: soft_cross_entropy(probs, sup.labels[name])
             for name, probs in out.probs.items()}
    return (reduce(operator.add, [value for value, _ in terms.values()]),
            lambda g: {name: back(g) for name, (_, back) in terms.items()})


@dataclass(frozen=True)
class Supervision:
    """Training targets of a set of samples as stacked arrays; ``sup[rows]``
    is the supervision of a batch.

    ``nearest`` holds the k nearest anchors of every branch, from the same
    search as the labels; the first z column is each row's depth class.
    The rotation neighbours are those of the raw ground truth; a symmetric
    model's regression searches again from its resolved rotation.
    """

    rotation: np.ndarray     # (n, 3, 3)
    vx: np.ndarray           # (n,) pixels
    vy: np.ndarray           # (n,) pixels
    z: np.ndarray            # (n,) meters
    labels: dict             # branch -> (n, anchors) sparse scores; empty without cls
    nearest: dict            # branch -> (n, k) anchor indices

    def __len__(self):
        return len(self.z)

    def __getitem__(self, rows):
        return Supervision(self.rotation[rows], self.vx[rows], self.vy[rows], self.z[rows],
                           {name: a[rows] for name, a in self.labels.items()},
                           {name: a[rows] for name, a in self.nearest.items()})


# ---------------------------------------------------------------------------
# regression loss (anchor-substituted point matching)


def resolve_symmetric_gt(out: HeadOutput, gt_rot, anchors: AnchorSet, model: ObjectModel):
    """Ground-truth rotations (B, 3, 3), with symmetric models resolved to
    the variant closest to the current prediction.  A degenerate predicted
    6D rotation decodes to its bare anchor rotation, as in prediction."""
    if not model.is_symmetric:
        return gt_rot
    picks = np.argmax(out.probs["rot"], axis=1)
    res = out.residuals["rot"][np.arange(len(picks)), picks]
    pred = rot6d_to_matrix(res) @ anchors.rotations[picks]
    return closest_symmetric_rotation(pred, gt_rot, model)


def regression_loss_batch(out: HeadOutput, sup: Supervision, anchors: AnchorSet,
                          model: ObjectModel, cam: CameraIntrinsics):
    """Per-sample regression loss (B,) over a batch of head outputs, and
    the map to branch -> residual gradient, in term order.

    Each branch sums, over the k nearest anchors of its target, the point
    matching distance between the ground truth and the ground truth with
    only that target replaced by the anchor's prediction.  Every term has
    a closed form:

    - rotation: mean over points of ||(R_i - R) x||_1, the translation
      cancels;
    - z: x and y scale with z, so (1 + |v_x|/f_x + |v_y|/f_y) |z_i - z|;
    - v_x, v_y: |v_x,i - v_x| z/f_x and |v_y,i - v_y| z/f_y.
    """
    if len(sup) == 0:
        raise InvalidArgumentError("empty batch")
    rows = np.arange(len(sup))[:, None]
    terms = {}   # branch -> (value, gradient map of its gathered residuals, anchor rows)
    if "rot" in out.residuals:
        gt_rot = resolve_symmetric_gt(out, sup.rotation, anchors, model)
        idx = (nearest_anchors(gt_rot, anchors.rotations, sup.nearest["rot"].shape[1])
               if model.is_symmetric else sup.nearest["rot"])   # (B, k)
        res = out.residuals["rot"]
        m, m_grad = gram_schmidt(res[rows, idx])   # (B, k, 3, 3), float64
        anchor_rot, scale = anchors.rotations[idx].astype(res.dtype), 1.0 / len(model.points)
        points = model.points.astype(res.dtype)
        moved = (m.astype(res.dtype) @ anchor_rot - gt_rot.astype(res.dtype)[:, None]) @ points.T

        def rot_grad(g):   # moved: (B, k, 3, P)
            g_moved = np.sign(moved) * (g[:, None] * scale)[..., None, None]
            return m_grad(g_moved @ points @ np.swapaxes(anchor_rot, -1, -2))

        terms["rot"] = ((np.abs(moved).sum(axis=-2).sum(axis=-1) * scale).sum(axis=-1),
                        rot_grad, idx)
    # scalar branch: (bins, target, weight of |t_i - t| in the point distance)
    z_weight = 1.0 + np.abs(sup.vx) / cam.fx + np.abs(sup.vy) / cam.fy
    scalar = {"z": (anchors.bins_z, sup.z, z_weight),
              "vx": (anchors.bins_vx, sup.vx, sup.z / cam.fx),
              "vy": (anchors.bins_vy, sup.vy, sup.z / cam.fy)}
    for name, (bins, target, weight) in scalar.items():
        if name in out.residuals:
            res, idx = out.residuals[name], sup.nearest[name]
            diff = res[rows, idx] + (bins[idx] - target[:, None]).astype(res.dtype)   # (B, k)
            weight = weight.astype(res.dtype)
            terms[name] = (np.abs(diff).sum(axis=-1) * weight,
                           lambda g, d=diff, w=weight: (g * w)[:, None] * np.sign(d), idx)

    def grad(g):
        grads = {}
        for name, (_, term_grad, idx) in terms.items():
            grads[name] = np.zeros_like(out.residuals[name])
            grads[name][rows, idx] = term_grad(g)   # a row's k anchors are distinct
        return grads

    return reduce(operator.add, [value for value, _, _ in terms.values()]), grad


# ---------------------------------------------------------------------------
# target-correlation graph regularizer


def build_target_graph(bins_z, z_min, z_max):
    """Correlation graph (N, N) over the depth bins: map the bins linearly
    to angles (the range to pi/2) and take the cosine of pairwise angle
    differences."""
    if not z_max > z_min:
        raise InvalidArgumentError("z_max must exceed z_min")
    angles = np.asarray(bins_z, dtype=float) / (z_max - z_min) * (np.pi / 2.0)
    return np.cos(np.abs(angles[:, None] - angles[None, :]))


def batch_feature_graph(features):
    """Pairwise cosine-similarity matrix (B, B) of the batch features, and
    its gradient map."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    if np.any(norms <= 0):
        raise DegenerateFeatureError("zero-norm feature in batch")
    fn = features / norms

    def grad(g):
        g_fn = (g + g.T) @ fn
        return (g_fn - fn * (g_fn * fn).sum(axis=1, keepdims=True)) / norms

    return fn @ fn.T, grad


def target_correlation_loss(graph, class_indices, g0):
    """Squared L2 distance between the feature graph and the target graph
    ``g0`` looked up at the depth classes (sum over all B^2 entries), and
    its gradient map."""
    idx = np.asarray(class_indices, dtype=int)
    if idx.ndim != 1 or graph.shape != (len(idx), len(idx)):
        raise ShapeError(f"graph {graph.shape} vs {len(idx)} class indices")
    if np.any(idx < 0) or np.any(idx >= len(g0)):
        raise InvalidArgumentError("class index out of range")
    diff = graph - g0[idx[:, None], idx[None, :]].astype(graph.dtype)
    return (diff * diff).sum(), lambda up: 2.0 * up * diff


# ---------------------------------------------------------------------------
# total objective


@dataclass
class ObjectiveConfig:
    """What the total objective includes and how labels are assigned.  The
    regression loss of each branch supervises min(label k, anchor count)
    nearest anchors."""

    labels: ScoreConfig
    use_cls: bool
    ctc_weight: float
    target_graph: np.ndarray   # (N, N) depth-bin graph of build_target_graph


@dataclass
class LossBreakdown:
    total: "ad.Tensor"
    cls_value: float
    reg_value: float
    corr_value: float

    @property
    def total_value(self):
        return self.total.item()


def prepare_batch_supervision(gt: Pose, anchors: AnchorSet, cam: CameraIntrinsics,
                              cfg: ObjectiveConfig,
                              branches=("rot", "vx", "vy", "z")) -> Supervision:
    """Supervision of a pose stack under one objective config, built once
    per training set."""
    rot, vx, vy, z = pose_targets(gt, cam)
    branch = {"rot": (rot, anchors.rotations, cfg.labels.branch("rot")),
              "vx": (vx, anchors.bins_vx, cfg.labels.branch("vx")),
              "vy": (vy, anchors.bins_vy, cfg.labels.branch("vy")),
              "z": (z, anchors.bins_z, cfg.labels.branch("z"))}
    nearest = {name: nearest_anchors(t, a, min(c.k, len(a))) for name, (t, a, c)
               in branch.items() if name in branches}
    labels = ({name: score_vector(nearest[name], len(branch[name][1]), branch[name][2])
               for name in branches} if cfg.use_cls else {})
    return Supervision(rot, vx, vy, z, labels, nearest)


def total_objective(out: HeadOutput, sup: Supervision, anchors: AnchorSet,
                    model: ObjectModel, cam: CameraIntrinsics,
                    cfg: ObjectiveConfig) -> LossBreakdown:
    """Batch mean of per-sample (classification + regression) losses plus
    the once-per-batch correlation regularizer.  ``total.backward()``
    hands the head-output gradients to the network's backward."""
    per_sample, reg_grad = regression_loss_batch(out, sup, anchors, model, cam)
    reg_value = float(per_sample.mean())
    cls_value, cls_grad = 0.0, None
    if cfg.use_cls:
        cls, cls_grad = classification_loss(out, sup)
        cls_value = float(cls.mean())
        per_sample = per_sample + cls
    n = len(per_sample)
    total = per_sample.sum() * (1.0 / n)
    corr_value, graph_grad = 0.0, None
    if cfg.ctc_weight > 0.0:
        graph, graph_grad = batch_feature_graph(out.feature)
        corr, corr_grad = target_correlation_loss(graph, sup.nearest["z"][:, 0],
                                                  cfg.target_graph)
        corr_value = float(corr)
        total = total + corr * cfg.ctc_weight

    def backward():
        g = np.full(n, 1.0 / n, dtype=out.feature.dtype)
        out.backward(cls_grad(g) if cls_grad else {}, reg_grad(g),
                     graph_grad(corr_grad(cfg.ctc_weight)) if graph_grad else None)

    return LossBreakdown(total=ad.Tensor(total, backward if out.backward else None),
                         cls_value=cls_value, reg_value=reg_value, corr_value=corr_value)
