"""Training losses: sparse-label cross-entropy, anchor-substituted point
matching, and the target-correlation graph regularizer.

The supervision of a training set is one ``Supervision`` of stacked arrays
(targets, sparse labels, neighbour sets), built once by
``prepare_batch_supervision`` and sliced per batch.  The regression loss
sums, for each target (rotation, v_x, v_y, z) and each of its k nearest
anchors, the point-set L1 distance between the ground truth and the
ground truth with only that target replaced by the anchor's prediction.
Each distance has a closed form, so only the rotation term touches the
model points.  The correlation regularizer pulls the batch's feature
cosine-similarity matrix toward a precomputed graph whose entry for two
depth bins is the cosine of their angle difference.

Each term is one ``autodiff.node`` with its closed-form gradient next to
its value: the cross-entropy, the 6D decode, the rotation and scalar
point-matching terms, the feature graph and the correlation distance.
"""

from __future__ import annotations

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
from .network import ROT6D_IDENTITY, HeadOutput

LOG_EPS = 1e-12


# ---------------------------------------------------------------------------
# classification


def soft_cross_entropy(probs, labels):
    """Cross-entropy -sum(labels * log(probs + eps)).

    1-D inputs give a scalar; (B, N) inputs give a per-sample (B,) tensor.
    ``probs`` may be a plain array or a Tensor on the tape.
    """
    p = ad.as_tensor(probs)
    labels = np.asarray(labels, dtype=np.float64)
    if p.data.shape != labels.shape:
        raise ShapeError(f"probs {p.data.shape} vs labels {labels.shape}")
    shifted = p.data + LOG_EPS
    return ad.node(-(np.log(shifted) * labels).sum(axis=-1),
                   (p, lambda g: -g[..., None] * labels / shifted))


def classification_loss(out: HeadOutput, sup: Supervision):
    """Per-sample sum of branch cross-entropies against sparse labels, (B,)."""
    return reduce(ad.add, [soft_cross_entropy(probs, sup.labels[name])
                           for name, probs in out.probs.items()])


@dataclass(frozen=True)
class Supervision:
    """Training targets of a set of samples as stacked arrays; ``sup[rows]``
    is the supervision of a batch.

    ``nearest`` holds the k nearest anchors of the scalar branches.  The
    rotation neighbours follow the symmetry-resolved rotation, which
    depends on the current prediction, so only their count is kept.
    """

    rotation: np.ndarray     # (n, 3, 3)
    vx: np.ndarray           # (n,) pixels
    vy: np.ndarray           # (n,) pixels
    z: np.ndarray            # (n,) meters
    labels: dict             # branch -> (n, anchors) sparse scores; empty without cls
    nearest: dict            # "vx" / "vy" / "z" -> (n, k) anchor indices
    k_rot: int

    def __len__(self):
        return len(self.z)

    def __getitem__(self, rows):
        return Supervision(self.rotation[rows], self.vx[rows], self.vy[rows], self.z[rows],
                           {name: a[rows] for name, a in self.labels.items()},
                           {name: a[rows] for name, a in self.nearest.items()}, self.k_rot)


# ---------------------------------------------------------------------------
# 6D rotation decode on the tape


def _dot(a, b):
    return (a * b).sum(axis=-1, keepdims=True)


def rot6d_to_matrix_t(r6):
    """Gram-Schmidt 6D-to-matrix on the tape; input (..., 6) -> (..., 3, 3).
    A degenerate row (see ``geometry.gram_schmidt``) is replaced by the
    identity 6D rotation: it gives the identity with a zero gradient.

    The columns are b1 = a1 / |a1|, b2 = a2p / |a2p| with a2p = a2 - (b1 .
    a2) b1, and b3 = b1 x b2; the backward pass runs that chain in reverse.
    """
    r6 = ad.as_tensor(r6)
    degenerate = gram_schmidt(r6.data)[1][..., None]
    a = np.where(degenerate, ROT6D_IDENTITY, r6.data)
    a1, a2 = a[..., :3], a[..., 3:]
    n1 = np.sqrt(_dot(a1, a1))
    b1 = a1 / n1
    proj = _dot(b1, a2)
    a2p = a2 - proj * b1
    n2 = np.sqrt(_dot(a2p, a2p))
    b2 = a2p / n2

    def grad(g):
        g1 = g[..., 0] + np.cross(b2, g[..., 2])      # b3 = b1 x b2
        g2 = g[..., 1] + np.cross(g[..., 2], b1)
        ga2p = (g2 - b2 * _dot(b2, g2)) / n2
        gproj = -_dot(ga2p, b1)
        g1 = g1 - proj * ga2p + gproj * a2
        ga1 = (g1 - b1 * _dot(b1, g1)) / n1
        return np.where(degenerate, 0.0, np.concatenate([ga1, ga2p + gproj * b1], axis=-1))

    return ad.node(np.stack([b1, b2, np.cross(b1, b2)], axis=-1), (r6, grad))


# ---------------------------------------------------------------------------
# regression loss (anchor-substituted point matching)


def resolve_symmetric_gt(out: HeadOutput, gt_rot, anchors: AnchorSet, model: ObjectModel):
    """Ground-truth rotations (B, 3, 3), with symmetric models resolved to
    the variant closest to the current prediction.  A degenerate predicted
    6D rotation decodes to its bare anchor rotation, as in prediction."""
    if not model.is_symmetric or "rot" not in out.probs:
        return gt_rot
    picks = np.argmax(out.probs["rot"].data, axis=1)
    res = out.residuals["rot"].data[np.arange(len(picks)), picks]
    pred = rot6d_to_matrix(res) @ anchors.rotations[picks]
    return closest_symmetric_rotation(pred, gt_rot, model)


def regression_loss_batch(out: HeadOutput, sup: Supervision, anchors: AnchorSet,
                          model: ObjectModel, cam: CameraIntrinsics):
    """Per-sample regression loss (B,) over a batch of head outputs.

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
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    terms = []
    if "rot" in out.residuals:
        gt_rot = resolve_symmetric_gt(out, sup.rotation, anchors, model)
        idx = nearest_anchors(gt_rot, anchors.rotations, sup.k_rot)   # (B, k)
        m = rot6d_to_matrix_t(ad.gather_rows(out.residuals["rot"], idx))  # (B, k, 3, 3)
        anchor_rot, scale = anchors.rotations[idx], 1.0 / len(model.points)
        moved = (m.data @ anchor_rot - gt_rot[:, None]) @ model.points.T   # (B, k, 3, P)

        def rot_grad(g):
            g_moved = np.sign(moved) * (g[:, None] * scale)[..., None, None]
            return g_moved @ model.points @ np.swapaxes(anchor_rot, -1, -2)

        terms.append(ad.node((np.abs(moved).sum(axis=-2).sum(axis=-1) * scale).sum(axis=-1),
                             (m, rot_grad)))
    # scalar branch: (bins, target, weight of |t_i - t| in the point distance)
    z_weight = 1.0 + np.abs(sup.vx) / cam.fx + np.abs(sup.vy) / cam.fy
    scalar = {"z": (anchors.bins_z, sup.z, z_weight),
              "vx": (anchors.bins_vx, sup.vx, sup.z / cam.fx),
              "vy": (anchors.bins_vy, sup.vy, sup.z / cam.fy)}
    for name, (bins, target, weight) in scalar.items():
        if name in out.residuals:
            idx = sup.nearest[name]
            res = ad.gather_rows(out.residuals[name], idx)             # (B, k)
            diff = res.data + bins[idx] - target[:, None]
            terms.append(ad.node(np.abs(diff).sum(axis=-1) * weight,
                                 (res, lambda g, d=diff, w=weight: (g * w)[:, None] * np.sign(d))))
    return reduce(ad.add, terms)


# ---------------------------------------------------------------------------
# target-correlation graph regularizer


@dataclass(frozen=True)
class TargetGraph:
    """Precomputed bin-to-bin correlation graph over depth classes."""

    g0: np.ndarray      # (N, N), cos of angle differences
    angles: np.ndarray  # (N,) radians

    @property
    def n_classes(self):
        return len(self.angles)


def build_target_graph(bins_z, z_min, z_max) -> TargetGraph:
    """Map depth bins linearly to angles in [0, pi/2] scale and take the
    cosine of pairwise angle differences."""
    if not z_max > z_min:
        raise InvalidArgumentError("z_max must exceed z_min")
    bins_z = np.asarray(bins_z, dtype=float)
    angles = bins_z / (z_max - z_min) * (np.pi / 2.0)
    g0 = np.cos(np.abs(angles[:, None] - angles[None, :]))
    return TargetGraph(g0=g0, angles=angles)


def batch_feature_graph(features):
    """Pairwise cosine-similarity matrix (B, B) of the batch features."""
    f = ad.as_tensor(features)
    norms = np.linalg.norm(f.data, axis=1, keepdims=True)
    if np.any(norms <= 0):
        raise DegenerateFeatureError("zero-norm feature in batch")
    fn = f.data / norms

    def grad(g):
        g_fn = (g + g.T) @ fn
        return (g_fn - fn * (g_fn * fn).sum(axis=1, keepdims=True)) / norms

    return ad.node(fn @ fn.T, (f, grad))


def z_class_indices(z_values, bins_z):
    """Depth class of each sample: index of its nearest z bin."""
    z_values = np.atleast_1d(np.asarray(z_values, dtype=float))
    return np.abs(z_values[:, None] - np.asarray(bins_z)[None, :]).argmin(axis=1)


def target_correlation_loss(graph, class_indices, tg: TargetGraph):
    """Squared L2 distance between the feature graph and the looked-up
    target graph (sum over all B^2 entries)."""
    g = ad.as_tensor(graph)
    idx = np.asarray(class_indices, dtype=int)
    if idx.ndim != 1 or g.data.shape != (len(idx), len(idx)):
        raise ShapeError(f"graph {g.data.shape} vs {len(idx)} class indices")
    if np.any(idx < 0) or np.any(idx >= tg.n_classes):
        raise InvalidArgumentError("class index out of range")
    diff = g.data - tg.g0[idx[:, None], idx[None, :]]
    return ad.node((diff * diff).sum(), (g, lambda up: 2.0 * up * diff))


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
    target_graph: TargetGraph


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
    labels = {name: score_vector(*branch[name]) for name in branches} if cfg.use_cls else {}
    nearest = {name: nearest_anchors(t, a, min(c.k, len(a)))
               for name, (t, a, c) in branch.items() if name in branches and name != "rot"}
    return Supervision(rot, vx, vy, z, labels, nearest,
                       k_rot=min(cfg.labels.branch("rot").k, anchors.n_rot))


def total_objective(out: HeadOutput, sup: Supervision, anchors: AnchorSet,
                    model: ObjectModel, cam: CameraIntrinsics,
                    cfg: ObjectiveConfig) -> LossBreakdown:
    """Batch mean of per-sample (classification + regression) losses plus
    the once-per-batch correlation regularizer."""
    per_sample = regression_loss_batch(out, sup, anchors, model, cam)
    reg_value = float(per_sample.data.mean())
    cls_value = 0.0
    if cfg.use_cls:
        cls = classification_loss(out, sup)
        cls_value = float(cls.data.mean())
        per_sample = ad.add(per_sample, cls)
    total = ad.tmean(per_sample)
    corr_value = 0.0
    if cfg.ctc_weight > 0.0:
        classes = z_class_indices(sup.z, anchors.bins_z)
        corr = target_correlation_loss(batch_feature_graph(out.feature), classes,
                                       cfg.target_graph)
        corr_value = float(corr.data)
        total = ad.add(total, ad.mul(corr, cfg.ctc_weight))
    return LossBreakdown(total=total, cls_value=cls_value, reg_value=reg_value,
                         corr_value=corr_value)
