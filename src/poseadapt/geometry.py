"""Rotation and pose algebra, pinhole image-plane targets, and anchor generation.

Conventions used throughout the package:

* rotations are 3x3 row-major matrices acting on column vectors;
* a pose is ``[R | t]`` with the translation ``t = [x, y, z]`` in meters,
  camera frame, z pointing away from the camera (z > 0 for visible objects);
* the image-plane translation components are expressed as
  ``v_x = f_x * x / z`` and ``v_y = f_y * y / z`` in pixels, relative to the
  principal point;
* a 6D rotation encodes the first two columns of the matrix and is mapped
  back through Gram-Schmidt orthonormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRotationError,
    InvalidArgumentError,
    NonPositiveDepthError,
)


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``[R | t]``: rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    @property
    def z(self):
        return float(self.translation[2])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidArgumentError("focal lengths must be positive")


@dataclass(frozen=True)
class ObjectModel:
    """A point cloud in meters plus its diameter and discrete symmetries.

    ``symmetries`` always contains the identity; additional entries are
    rotations that map the shape onto itself (finite sets only).
    """

    points: np.ndarray
    diameter: float
    symmetries: tuple = (np.eye(3),)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidArgumentError(f"points must be (n, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        syms = tuple(np.asarray(s, dtype=float) for s in self.symmetries)
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
    vx_range: tuple = (-200.0, 200.0)
    vy_range: tuple = (-200.0, 200.0)
    z_range: tuple = (0.0, 2.0)

    @property
    def n_rot(self):
        return len(self.rotations)

    @classmethod
    def build(cls, n_rot=60, n_vx=20, n_vy=20, n_z=40,
              vx_range=(-200.0, 200.0), vy_range=(-200.0, 200.0),
              z_range=(0.0, 2.0), seed=0):
        return cls(
            rotations=generate_rotation_anchors(n_rot, seed),
            bins_vx=generate_translation_bins(vx_range[0], vx_range[1], n_vx),
            bins_vy=generate_translation_bins(vy_range[0], vy_range[1], n_vy),
            bins_z=generate_translation_bins(z_range[0], z_range[1], n_z),
            vx_range=tuple(vx_range), vy_range=tuple(vy_range), z_range=tuple(z_range),
        )

    @classmethod
    def single(cls, vx_range=(-200.0, 200.0), vy_range=(-200.0, 200.0), z_range=(0.0, 2.0)):
        """Degenerate one-anchor set used by the direct-regression baseline."""
        return cls(
            rotations=np.eye(3)[None],
            bins_vx=generate_translation_bins(vx_range[0], vx_range[1], 1),
            bins_vy=generate_translation_bins(vy_range[0], vy_range[1], 1),
            bins_z=generate_translation_bins(z_range[0], z_range[1], 1),
            vx_range=tuple(vx_range), vy_range=tuple(vy_range), z_range=tuple(z_range),
        )


# ---------------------------------------------------------------------------
# rotation representations


def rot6d_to_matrix(r):
    """Map a 6D rotation (two unnormalized 3-vectors) to a rotation matrix.

    The two halves become the first two columns after Gram-Schmidt; the
    third column is their cross product.  Raises DegenerateRotationError
    when the first vector vanishes or the two are parallel.
    """
    r = np.asarray(r, dtype=float).reshape(6)
    a1, a2 = r[:3], r[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-12:
        raise DegenerateRotationError("first 6D half-vector is zero")
    b1 = a1 / n1
    a2p = a2 - (b1 @ a2) * b1
    n2 = np.linalg.norm(a2p)
    if n2 < 1e-12:
        raise DegenerateRotationError("6D half-vectors are parallel")
    b2 = a2p / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=1)


def matrix_to_rot6d(m):
    """First two columns of a rotation matrix, flattened to 6 values."""
    m = np.asarray(m, dtype=float)
    return np.concatenate([m[:, 0], m[:, 1]])


def geodesic_distance(r1, r2):
    """Angular distance between two rotations, in [0, pi].

    The trace argument is clamped to [-1, 1] so float overshoot near the
    endpoints cannot produce NaN.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    c = (np.trace(r1 @ r2.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


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


def random_rotations(n, rng):
    """Uniform random rotation matrices (n, 3, 3)."""
    return quaternions_to_matrices(random_quaternions(n, rng))


def generate_rotation_anchors(n, seed):
    """Approximately uniform SO(3) anchors, deterministic for (n, seed).

    Farthest-point subsampling of a large seeded quaternion pool
    (50 * n candidates), starting from the identity rotation.  Distances
    are quaternion geodesics, 2 * arccos(|q1 . q2|).
    """
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 anchors, got {n}")
    rng = np.random.default_rng(seed)
    pool = random_quaternions(50 * n, rng)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    chosen = [identity]
    # min quaternion-geodesic distance from each pool entry to the chosen set
    best = 2.0 * np.arccos(np.minimum(np.abs(pool @ identity), 1.0))
    for _ in range(n - 1):
        idx = int(np.argmax(best))
        chosen.append(pool[idx])
        d = 2.0 * np.arccos(np.minimum(np.abs(pool @ pool[idx]), 1.0))
        best = np.minimum(best, d)
    return quaternions_to_matrices(np.array(chosen))


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


def compose_pose(cls_picks, residuals, anchors: AnchorSet, cam: CameraIntrinsics) -> Pose:
    """Assemble a pose from anchor picks plus residuals.

    ``cls_picks`` is (i_rot, i_vx, i_vy, i_z); ``residuals`` is
    (rot6d_residual, dv_x, dv_y, dz).  The rotation residual left-multiplies
    the anchor rotation; z is computed first and reused to lift v_x, v_y
    to metric x, y.
    """
    i_rot, i_vx, i_vy, i_z = cls_picks
    rot_res, dvx, dvy, dz = residuals
    if not (0 <= i_rot < anchors.n_rot and 0 <= i_vx < len(anchors.bins_vx)
            and 0 <= i_vy < len(anchors.bins_vy) and 0 <= i_z < len(anchors.bins_z)):
        raise InvalidArgumentError("anchor index out of bounds")
    z = float(anchors.bins_z[i_z] + dz)
    if z <= 0:
        raise NonPositiveDepthError(f"composed depth {z} <= 0")
    vx = float(anchors.bins_vx[i_vx] + dvx)
    vy = float(anchors.bins_vy[i_vy] + dvy)
    rotation = rot6d_to_matrix(rot_res) @ anchors.rotations[i_rot]
    return Pose(rotation, np.array([vx * z / cam.fx, vy * z / cam.fy, z]))


def apply_pose(p: Pose, pts):
    """Transform points (n, 3) by ``R x + t``."""
    pts = np.asarray(pts, dtype=float)
    return pts @ p.rotation.T + p.translation


def pose_targets(p: Pose, cam: CameraIntrinsics):
    """Classification targets (rotation, v_x, v_y, z) for a pose."""
    x, y, z = p.translation
    return p.rotation, x * cam.fx / z, y * cam.fy / z, z


def closest_symmetric_rotation(r_pred, r_gt, model: ObjectModel):
    """Ground-truth rotation variant closest to the prediction.

    Minimizes geodesic distance over ``r_gt @ s`` for the model's discrete
    symmetries; ties break toward the lowest symmetry index.
    """
    best, best_d = None, np.inf
    for s in model.symmetries:
        cand = r_gt @ s
        d = geodesic_distance(r_pred, cand)
        if d < best_d - 1e-15:
            best, best_d = cand, d
    return best

