"""Rotation and pose algebra, pinhole image-plane targets, and anchor generation.

Conventions used throughout the package:

* rotations are 3x3 row-major matrices acting on column vectors;
* a pose is ``[R | t]`` with the translation ``t = [x, y, z]`` in meters,
  camera frame, z pointing away from the camera (z > 0 for visible objects);
* the image-plane translation components are expressed as
  ``v_x = f_x * x / z`` and ``v_y = f_y * y / z`` in pixels, relative to the
  principal point;
* a 6D rotation encodes the first two columns of the matrix and is mapped
  back through Gram-Schmidt orthonormalization; ``gram_schmidt`` is the
  one decode, for prediction and, with its gradient map, for the loss.

A ``Pose`` is one transform or a stack of them, and ``apply_pose`` moves
points by a whole stack.  ``rot6d_to_matrix``, ``compose_pose`` and
``closest_symmetric_rotation`` work on a batch: one call decodes or
resolves every row, with no loop over samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``[R | t]``: rotation plus translation in meters,
    (3, 3) and (3,) for one pose, (..., 3, 3) and (..., 3) for a stack.
    ``len(stack)`` and ``stack[rows]`` follow the leading axis."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape[-2:] != (3, 3) or t.shape[-1:] != (3,) or r.shape[:-2] != t.shape[:-1]:
            raise InvalidArgumentError(f"pose needs rotation (..., 3, 3) and translation "
                                       f"(..., 3), got {r.shape} and {t.shape}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def stack(cls, poses):
        """One stack, (B, 3, 3) and (B, 3), of a sequence of poses and pose
        stacks joined in order; an empty sequence gives B = 0."""
        rotations = [np.empty((0, 3, 3))] + [p.rotation.reshape(-1, 3, 3) for p in poses]
        translations = [np.empty((0, 3))] + [p.translation.reshape(-1, 3) for p in poses]
        return cls(np.concatenate(rotations), np.concatenate(translations))

    def __len__(self):
        return len(self.z)

    def __getitem__(self, rows):
        return Pose(self.rotation[rows], self.translation[rows])

    @property
    def z(self):
        return self.translation[..., 2]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths in pixels."""

    fx: float
    fy: float

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) < np.inf:
                raise InvalidArgumentError(f"camera {name} {v!r} is not a finite number")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidArgumentError("focal lengths must be positive")


@dataclass(frozen=True)
class ObjectModel:
    """A finite, nonempty point cloud in meters, its positive diameter and its symmetries.

    ``symmetries`` always contains the identity; additional entries are
    rotations that map the shape onto itself (finite sets only).
    """

    points: np.ndarray
    diameter: float
    symmetries: tuple = (np.eye(3),)

    def __post_init__(self):
        pts, d = np.asarray(self.points, dtype=float), self.diameter
        if pts.ndim != 2 or pts.shape[1] != 3 or not len(pts) or not np.isfinite(pts).all():
            raise InvalidArgumentError(f"points {pts.shape} are not finite, nonempty and (n, 3)")
        if isinstance(d, bool) or not isinstance(d, (int, float)) or not 0 < d < np.inf:
            raise InvalidArgumentError(f"diameter {d!r} is not a positive finite number")
        object.__setattr__(self, "points", pts)
        syms = tuple(np.asarray(s, dtype=float) for s in self.symmetries)
        if any(s.shape != (3, 3) or not is_rotation(s) for s in syms):
            raise InvalidArgumentError("every symmetry must be a rotation")
        if not any(np.allclose(s, np.eye(3)) for s in syms):
            syms = (np.eye(3),) + syms
        object.__setattr__(self, "symmetries", syms)

    @property
    def is_symmetric(self):
        return len(self.symmetries) > 1

    @classmethod
    def from_points(cls, points, symmetries=(np.eye(3),)):
        points = np.asarray(points, dtype=float)
        return cls(points=points, diameter=point_cloud_diameter(points), symmetries=symmetries)


def is_rotation(r):
    """Per matrix of an (..., 3, 3) stack: finite, orthonormal within 1e-9, det +1."""
    with np.errstate(invalid="ignore", over="ignore"):    # a non-finite product compares False
        return ((np.abs(r @ np.swapaxes(r, -1, -2) - np.eye(3)) <= 1e-9).all(axis=(-2, -1))
                & (np.linalg.det(r) > 0))


def point_cloud_diameter(points):
    """Exact max pairwise distance, O(n^2)."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff * diff).sum(-1)).max())


@dataclass(frozen=True)
class AnchorSet:
    """Discretized pose space: SO(3) anchors plus uniform v_x, v_y, z bins."""

    rotations: np.ndarray        # (n_rot, 3, 3)
    bins_vx: np.ndarray          # pixels
    bins_vy: np.ndarray          # pixels
    bins_z: np.ndarray           # meters
    z_range: tuple               # meters, the span of the depth graph

    @property
    def n_rot(self):
        return len(self.rotations)

    @classmethod
    def build(cls, n_rot, n_vx, n_vy, n_z, vx_range, vy_range, z_range, seed):
        return cls(rotations=generate_rotation_anchors(n_rot, seed),
                   bins_vx=generate_translation_bins(vx_range[0], vx_range[1], n_vx),
                   bins_vy=generate_translation_bins(vy_range[0], vy_range[1], n_vy),
                   bins_z=generate_translation_bins(z_range[0], z_range[1], n_z),
                   z_range=tuple(z_range))


# ---------------------------------------------------------------------------
# rotation representations


def _dot(a, b):
    """Dot products over the last axis.  A stacked matmul gives each row the
    same bits as the 1-D ``a @ b`` of that row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def cross(a, b):
    """``np.cross`` of (..., 3) stacks, its bits without its axis moves."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def gram_schmidt(r):
    """Rotation matrices (..., 3, 3) of 6D rotations (..., 6), in float64,
    and the map from a gradient of the matrices to the gradient of ``r``.

    The columns are b1 = a1 / |a1|, b2 = a2p / |a2p| with a2p = a2 - (b1 .
    a2) b1, and b3 = b1 x b2; the gradient map runs that chain in reverse.
    A degenerate row, a first vector or a second orthogonal part with a
    norm below 1e-12, has no rotation: it decodes to the identity and gets
    a zero gradient.
    """
    r = np.asarray(r, dtype=np.float64)
    a1, a2 = r[..., :3], r[..., 3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = np.sqrt(_dot(a1, a1))[..., None]
        b1 = a1 / n1
        proj = _dot(b1, a2)[..., None]
        a2p = a2 - proj * b1
        n2 = np.sqrt(_dot(a2p, a2p))[..., None]
        b2 = a2p / n2
    degenerate = (n1 < 1e-12) | (n2 < 1e-12)
    b1 = np.where(degenerate, (1.0, 0.0, 0.0), b1)
    b2 = np.where(degenerate, (0.0, 1.0, 0.0), b2)

    def grad(g):
        g1 = g[..., 0] + cross(b2, g[..., 2])      # b3 = b1 x b2
        g2 = g[..., 1] + cross(g[..., 2], b1)
        with np.errstate(all="ignore"):     # a norm near 0 is a degenerate row: zeroed
            ga2p = (g2 - b2 * _dot(b2, g2)[..., None]) / n2
            gproj = -_dot(ga2p, b1)[..., None]
            g1 = g1 - proj * ga2p + gproj * a2
            ga1 = (g1 - b1 * _dot(b1, g1)[..., None]) / n1
            return np.where(degenerate, 0.0, np.concatenate([ga1, ga2p + gproj * b1], axis=-1))

    return np.stack([b1, b2, cross(b1, b2)], axis=-1), grad


def rot6d_to_matrix(r):
    """Map 6D rotations (..., 6), two unnormalized 3-vectors each, to
    rotation matrices (..., 3, 3).

    The two halves become the first two columns after Gram-Schmidt; the
    third column is their cross product.  A row whose first vector
    vanishes, or whose two vectors are parallel, has no rotation and maps
    to the identity.
    """
    return gram_schmidt(r)[0]


def geodesic_distances_to(rotations, r):
    """Geodesic distances (..., n) from each rotation in (n, 3, 3) to each
    rotation in ``r``, (3, 3) or (..., 3, 3)."""
    rotations = np.asarray(rotations, dtype=float)
    r = np.asarray(r, dtype=float)
    traces = np.einsum("nij,...ij->...n", rotations, r)
    return np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))


def random_quaternions(n, rng):
    """Uniform unit quaternions (n, 4) via normalized Gaussians."""
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def quaternions_to_matrices(q):
    """Unit quaternions (n, 4), scalar-first, to rotation matrices (n, 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def farthest_point_sample(pool, start, k, dist):
    """``start`` and the k - 1 pool entries that greedy farthest-point
    sampling adds to it, in order; ``dist(x)`` is every pool entry's
    distance to ``x``, and the first farthest entry wins a tie."""
    chosen, best = [start], dist(start)
    for _ in range(k - 1):
        chosen.append(pool[int(np.argmax(best))])
        best = np.minimum(best, dist(chosen[-1]))
    return np.array(chosen)


def generate_rotation_anchors(n, seed):
    """Approximately uniform SO(3) anchors, deterministic for (n, seed).

    Farthest-point subsampling of a large seeded quaternion pool
    (50 * n candidates), starting from the identity rotation.  Distances
    are quaternion geodesics, 2 * arccos(|q1 . q2|).
    """
    if n < 1:
        raise InvalidArgumentError(f"need at least one anchor, got {n}")
    pool = random_quaternions(50 * n, np.random.default_rng(seed))
    return quaternions_to_matrices(farthest_point_sample(
        pool, np.array([1.0, 0.0, 0.0, 0.0]), n,
        lambda q: 2.0 * np.arccos(np.minimum(np.abs(pool @ q), 1.0))))


def generate_translation_bins(d_min, d_max, n):
    """Centers of n uniform bins over [d_min, d_max]."""
    if n < 1:
        raise InvalidArgumentError("need at least one bin")
    if not d_max > d_min:
        raise InvalidArgumentError(f"invalid bin range [{d_min}, {d_max}]")
    width = (d_max - d_min) / n
    return d_min + (np.arange(n) + 0.5) * width


# ---------------------------------------------------------------------------
# pose composition


def compose_pose(picks, residuals, anchors: AnchorSet, cam: CameraIntrinsics):
    """Assemble a batch of poses from anchor picks plus residuals.

    ``picks`` is (i_rot, i_vx, i_vy, i_z), each (B,); ``residuals`` is
    (rot6d (B, 6), dv_x, dv_y, dz), the scalars (B,).  The rotation residual
    left-multiplies the anchor rotation; z is computed first and reused to
    lift v_x, v_y to metric x, y.  A residual that breaks the pose falls
    back to the bare anchor: a degenerate 6D rotation to the anchor
    rotation, a non-positive depth to the bin center.  Returns rotations
    (B, 3, 3) and translations (B, 3).
    """
    picks = [np.asarray(i, dtype=int) for i in picks]
    sizes = (anchors.n_rot, len(anchors.bins_vx), len(anchors.bins_vy), len(anchors.bins_z))
    if any(np.any((i < 0) | (i >= n)) for i, n in zip(picks, sizes)):
        raise InvalidArgumentError("anchor index out of bounds")
    i_rot, i_vx, i_vy, i_z = picks
    rot_res, dvx, dvy, dz = residuals
    z = anchors.bins_z[i_z] + dz
    z = np.where(z <= 0, anchors.bins_z[i_z], z)
    vx = anchors.bins_vx[i_vx] + dvx
    vy = anchors.bins_vy[i_vy] + dvy
    rotations = rot6d_to_matrix(rot_res) @ anchors.rotations[i_rot]
    return rotations, np.stack([vx * z / cam.fx, vy * z / cam.fy, z], axis=-1)


def apply_pose(p: Pose, pts):
    """Transform points (n, 3) by ``R x + t``: (n, 3) for one pose,
    (..., n, 3) for a stack."""
    pts = np.asarray(pts, dtype=float)
    return pts @ np.swapaxes(p.rotation, -1, -2) + p.translation[..., None, :]


def pose_targets(p: Pose, cam: CameraIntrinsics):
    """Classification targets (rotation, v_x, v_y, z) of a pose or, with
    leading axes, of a stack."""
    x, y, z = np.moveaxis(p.translation, -1, 0)
    return p.rotation, x * cam.fx / z, y * cam.fy / z, z


def closest_symmetric_rotation(r_pred, r_gt, model: ObjectModel):
    """Ground-truth rotation variants (B, 3, 3) closest to the predictions.

    For each row of ``r_pred`` and ``r_gt`` (B, 3, 3), minimizes geodesic
    distance over ``r_gt @ s`` for the model's discrete symmetries; ties
    break toward the lowest symmetry index.  The trace argument is clamped
    to [-1, 1] so float overshoot cannot produce NaN.
    """
    best, best_d = None, np.full(len(r_gt), np.inf)
    for s in model.symmetries:
        cand = r_gt @ s
        trace = np.trace(r_pred @ np.swapaxes(cand, -1, -2), axis1=-2, axis2=-1)
        d = np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))
        closer = d < best_d - 1e-15
        best = cand if best is None else np.where(closer[:, None, None], cand, best)
        best_d = np.where(closer, d, best_d)
    return best
