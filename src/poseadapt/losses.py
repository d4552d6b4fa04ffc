"""Training losses: sparse-label cross-entropy, anchor-substituted point
matching, and the target-correlation graph regularizer.

The regression loss evaluates, for each supervision target (rotation, z,
and the paired v_x/v_y), the point-set L1 distance between the ground
truth and a pose in which only that target is replaced by the network's
per-anchor prediction; supervision covers the k nearest anchors of the
ground-truth target.  The correlation regularizer pulls the batch's
feature cosine-similarity matrix toward a precomputed graph whose entry
for two depth bins is the cosine of their angle difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DegenerateFeatureError, InvalidArgumentError, ShapeError
from .geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    closest_symmetric_rotation,
    pose_targets,
    rot6d_to_matrix,
)
from .labeling import LabelConfig, nearest_anchors, score_vector
from .network import HeadOutput

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
    ce = ad.mul(ad.tsum(ad.mul(ad.log(ad.add(p, LOG_EPS)), labels), axis=-1), -1.0)
    return ce


def classification_loss(out: HeadOutput, gt_poses, anchors: AnchorSet,
                        cam: CameraIntrinsics, cfg: LabelConfig, sup=None):
    """Per-sample sum of branch cross-entropies against sparse labels, (B,)."""
    if sup is None:
        sup = [prepare_supervision(p, anchors, None, cam,
                                   labels_cfg=cfg, branches=tuple(out.probs))
               for p in gt_poses]
    total = None
    for name, probs in out.probs.items():
        labels = np.stack([s.labels[name] for s in sup])
        term = soft_cross_entropy(probs, labels)
        total = term if total is None else ad.add(total, term)
    return total


@dataclass
class Supervision:
    """Per-sample training targets cached across epochs.

    ``idx_rot`` and ``gt_pts`` are left None for symmetric models: they
    depend on the symmetry-resolved rotation, which follows the current
    prediction and is recomputed per batch.
    """

    pose: Pose
    vx: float
    vy: float
    z: float
    labels: dict = None
    idx_rot: np.ndarray = None
    idx_vx: np.ndarray = None
    idx_vy: np.ndarray = None
    idx_z: np.ndarray = None
    gt_pts: np.ndarray = None     # (3, N) transformed model points


def prepare_supervision(pose: Pose, anchors: AnchorSet, model, cam: CameraIntrinsics,
                        labels_cfg: LabelConfig = None, k_rot=4, k_z=7, k_vxvy=7,
                        branches=("rot", "vx", "vy", "z")) -> Supervision:
    """Precompute everything about one sample that does not change during
    training: sparse labels, scalar-branch neighbor sets, and (for
    asymmetric models) the rotation neighbor set and ground-truth points."""
    rot, vx, vy, z = pose_targets(pose, cam)
    sup = Supervision(pose=pose, vx=vx, vy=vy, z=z)
    if labels_cfg is not None:
        branch_anchors = {"rot": anchors.rotations, "vx": anchors.bins_vx,
                          "vy": anchors.bins_vy, "z": anchors.bins_z}
        branch_cfg = {"rot": labels_cfg.rotation, "vx": labels_cfg.vx,
                      "vy": labels_cfg.vy, "z": labels_cfg.z}
        targets = {"rot": rot, "vx": vx, "vy": vy, "z": z}
        sup.labels = {name: score_vector(targets[name], branch_anchors[name],
                                         branch_cfg[name])
                      for name in branches}
    if model is not None:
        if "z" in branches:
            sup.idx_z = nearest_anchors(z, anchors.bins_z, k_z)
        if "vx" in branches:
            sup.idx_vx = nearest_anchors(vx, anchors.bins_vx, k_vxvy)
        if "vy" in branches:
            sup.idx_vy = nearest_anchors(vy, anchors.bins_vy, k_vxvy)
        if not model.is_symmetric:
            if "rot" in branches:
                sup.idx_rot = nearest_anchors(rot, anchors.rotations, k_rot)
            sup.gt_pts = pose.rotation @ model.points.T + pose.translation[:, None]
    return sup


# ---------------------------------------------------------------------------
# point matching


def rot6d_to_matrix_t(r6):
    """Gram-Schmidt 6D-to-matrix on the tape; input (..., 6) -> (..., 3, 3)."""
    r6 = ad.as_tensor(r6)
    a1, a2 = r6[..., :3], r6[..., 3:]
    b1 = ad.div(a1, ad.norm(a1, axis=-1, keepdims=True))
    proj = ad.tsum(ad.mul(b1, a2), axis=-1, keepdims=True)
    a2p = ad.sub(a2, ad.mul(proj, b1))
    b2 = ad.div(a2p, ad.norm(a2p, axis=-1, keepdims=True))
    b3 = ad.cross(b1, b2)
    return ad.stack([b1, b2, b3], axis=-1)


def _l1_set_distance(rot, trans, gt_pts, pts_t):
    """Mean-over-points L1 distance between transformed point sets.

    ``rot`` (..., 3, 3) and ``trans`` (..., 3) live on the tape; ``gt_pts``
    is the constant (..., 3, N) ground-truth point set; ``pts_t`` is the
    constant (3, N) model cloud.  Returns (...,).
    """
    moved = ad.add(ad.matmul(rot, pts_t), ad.reshape(trans, trans.data.shape + (1,)))
    diff = ad.absolute(ad.sub(moved, gt_pts))
    return ad.tmean(ad.tsum(diff, axis=-2), axis=-1)


def point_matching_distance(p, gt: Pose, model: ObjectModel):
    """Point-set L1 distance (1/|O|) sum_x ||T x - T~ x||_1.

    ``p`` is either a Pose (returns a float) or an (rotation, translation)
    pair of tape tensors (returns a differentiable scalar tensor).
    """
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    pts_t = model.points.T  # (3, N)
    gt_pts = gt.rotation @ pts_t + gt.translation[:, None]
    if isinstance(p, Pose):
        moved = p.rotation @ pts_t + p.translation[:, None]
        return float(np.abs(moved - gt_pts).sum(axis=0).mean())
    rot, trans = p
    return _l1_set_distance(ad.as_tensor(rot), ad.as_tensor(trans), gt_pts, pts_t)


# ---------------------------------------------------------------------------
# regression loss (anchor-substituted point matching)


def resolve_symmetric_gt(out: HeadOutput, gt_poses, anchors: AnchorSet, model: ObjectModel):
    """Ground-truth rotations, with symmetric models resolved to the
    variant closest to the current prediction."""
    rots = [p.rotation for p in gt_poses]
    if not model.is_symmetric or "rot" not in out.probs:
        return np.stack(rots)
    picks = np.argmax(out.probs["rot"].data, axis=1)
    resolved = []
    for b, gt_rot in enumerate(rots):
        i = picks[b]
        pred = rot6d_to_matrix(out.residuals["rot"].data[b, i]) @ anchors.rotations[i]
        resolved.append(closest_symmetric_rotation(pred, gt_rot, model))
    return np.stack(resolved)


def regression_loss_batch(out: HeadOutput, gt_poses, anchors: AnchorSet,
                          model: ObjectModel, cam: CameraIntrinsics,
                          k_rot=4, k_z=7, k_vxvy=7, sup=None):
    """Per-sample regression loss (B,) over a batch of head outputs."""
    if len(gt_poses) == 0:
        raise InvalidArgumentError("empty batch")
    if "rot" in out.probs and k_rot > anchors.n_rot:
        raise InvalidArgumentError(f"k_rot={k_rot} exceeds {anchors.n_rot} anchors")
    if k_z > len(anchors.bins_z):
        raise InvalidArgumentError(f"k_z={k_z} exceeds {len(anchors.bins_z)} bins")
    if k_vxvy > min(len(anchors.bins_vx), len(anchors.bins_vy)):
        raise InvalidArgumentError(f"k_vxvy={k_vxvy} exceeds bin count")
    pts_t = model.points.T
    if pts_t.shape[1] == 0:
        raise InvalidArgumentError("empty object model")
    B = len(gt_poses)
    if sup is None:
        sup = [prepare_supervision(p, anchors, model, cam, k_rot=k_rot, k_z=k_z,
                                   k_vxvy=k_vxvy, branches=tuple(out.residuals))
               for p in gt_poses]
    gt_t = np.stack([p.translation for p in gt_poses])
    vx_t = np.array([s.vx for s in sup])
    vy_t = np.array([s.vy for s in sup])
    z_t = np.array([s.z for s in sup])
    if model.is_symmetric:
        gt_rot = resolve_symmetric_gt(out, gt_poses, anchors, model)
        gt_pts = (gt_rot @ pts_t)[:, None] + gt_t[:, None, :, None]
        idx_rot = (np.stack([nearest_anchors(r, anchors.rotations, k_rot) for r in gt_rot])
                   if "rot" in out.residuals else None)
    else:
        gt_rot = np.stack([s.pose.rotation for s in sup])
        gt_pts = np.stack([s.gt_pts for s in sup])[:, None]
        idx_rot = np.stack([s.idx_rot for s in sup]) if "rot" in out.residuals else None

    loss = None

    if "rot" in out.residuals:
        res = ad.gather_rows(out.residuals["rot"], idx_rot)     # (B, k, 6)
        rot = ad.matmul(rot6d_to_matrix_t(res), anchors.rotations[idx_rot])
        trans = ad.Tensor(np.broadcast_to(gt_t[:, None, :], (B, k_rot, 3)))
        term = ad.tsum(_l1_set_distance(rot, trans, gt_pts, pts_t), axis=-1)
        loss = term

    if "z" in out.residuals:
        idx = np.stack([s.idx_z for s in sup])
        z_i = ad.add(ad.gather_rows(out.residuals["z"], idx), anchors.bins_z[idx])
        x_i = ad.mul(z_i, (vx_t / cam.fx)[:, None])
        y_i = ad.mul(z_i, (vy_t / cam.fy)[:, None])
        trans = ad.stack([x_i, y_i, z_i], axis=-1)              # (B, k, 3)
        rot = ad.Tensor(np.broadcast_to(gt_rot[:, None], (B, k_z, 3, 3)))
        term = ad.tsum(_l1_set_distance(rot, trans, gt_pts, pts_t), axis=-1)
        loss = term if loss is None else ad.add(loss, term)

    if "vx" in out.residuals and "vy" in out.residuals:
        k = k_vxvy
        idx_x = np.stack([s.idx_vx for s in sup])
        idx_y = np.stack([s.idx_vy for s in sup])
        # per-axis neighbors paired by rank; both components substituted at once
        vx_i = ad.add(ad.gather_rows(out.residuals["vx"], idx_x), anchors.bins_vx[idx_x])
        vy_i = ad.add(ad.gather_rows(out.residuals["vy"], idx_y), anchors.bins_vy[idx_y])
        x_i = ad.mul(vx_i, (z_t / cam.fx)[:, None])
        y_i = ad.mul(vy_i, (z_t / cam.fy)[:, None])
        z_i = ad.Tensor(np.broadcast_to(z_t[:, None], (B, k)))
        trans = ad.stack([x_i, y_i, z_i], axis=-1)
        rot = ad.Tensor(np.broadcast_to(gt_rot[:, None], (B, k, 3, 3)))
        term = ad.tsum(_l1_set_distance(rot, trans, gt_pts, pts_t), axis=-1)
        loss = term if loss is None else ad.add(loss, term)

    return loss


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
    norms = np.linalg.norm(f.data, axis=1)
    if np.any(norms <= 0):
        raise DegenerateFeatureError("zero-norm feature in batch")
    fn = ad.div(f, ad.norm(f, axis=1, keepdims=True))
    return ad.matmul(fn, ad.swapaxes(fn, 0, 1))


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
    wanted = tg.g0[idx[:, None], idx[None, :]]
    diff = ad.sub(g, wanted)
    return ad.tsum(ad.mul(diff, diff))


# ---------------------------------------------------------------------------
# total objective


@dataclass
class ObjectiveConfig:
    """What the total objective includes and how labels are assigned."""

    labels: LabelConfig = field(default_factory=LabelConfig.default)
    k_rot: int = 4
    k_z: int = 7
    k_vxvy: int = 7
    use_cls: bool = True
    ctc_weight: float = 1.0
    target_graph: TargetGraph = None


@dataclass
class LossBreakdown:
    total: "ad.Tensor"
    cls_value: float
    reg_value: float
    corr_value: float

    @property
    def total_value(self):
        return self.total.item()


def prepare_batch_supervision(gt_poses, anchors: AnchorSet, model: ObjectModel,
                              cam: CameraIntrinsics, cfg: ObjectiveConfig,
                              branches=("rot", "vx", "vy", "z")):
    """Supervision cache for a list of poses under one objective config."""
    return [prepare_supervision(p, anchors, model, cam,
                                labels_cfg=cfg.labels if cfg.use_cls else None,
                                k_rot=cfg.k_rot, k_z=cfg.k_z, k_vxvy=cfg.k_vxvy,
                                branches=branches)
            for p in gt_poses]


def total_objective(out: HeadOutput, gt_poses, anchors: AnchorSet,
                    model: ObjectModel, cam: CameraIntrinsics,
                    cfg: ObjectiveConfig, sup=None) -> LossBreakdown:
    """Batch mean of per-sample (classification + regression) losses plus
    the once-per-batch correlation regularizer."""
    if len(gt_poses) == 0:
        raise InvalidArgumentError("empty batch")
    per_sample = regression_loss_batch(out, gt_poses, anchors, model, cam,
                                       cfg.k_rot, cfg.k_z, cfg.k_vxvy, sup=sup)
    reg_value = float(per_sample.data.mean())
    cls_value = 0.0
    if cfg.use_cls:
        cls = classification_loss(out, gt_poses, anchors, cam, cfg.labels,
                                  sup=sup if sup and sup[0].labels is not None else None)
        cls_value = float(cls.data.mean())
        per_sample = ad.add(per_sample, cls)
    total = ad.tmean(per_sample)
    corr_value = 0.0
    if cfg.ctc_weight > 0.0:
        if cfg.target_graph is None:
            raise InvalidArgumentError("correlation regularizer requires a target graph")
        classes = z_class_indices([s.z for s in sup] if sup else [p.z for p in gt_poses],
                                  anchors.bins_z)
        corr = target_correlation_loss(batch_feature_graph(out.feature), classes,
                                       cfg.target_graph)
        corr_value = float(corr.data)
        total = ad.add(total, ad.mul(corr, cfg.ctc_weight))
    return LossBreakdown(total=total, cls_value=cls_value, reg_value=reg_value,
                         corr_value=corr_value)
