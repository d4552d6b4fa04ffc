"""Test-only references and generators.

``point_matching_distance`` is the point-set distance the closed-form
regression terms stand for.
"""

import numpy as np

from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import quaternions_to_matrices, random_quaternions


def point_matching_distance(p, gt, model):
    """Point-set L1 distance (1/|O|) sum_x ||T x - T~ x||_1."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    pts_t = model.points.T  # (3, N)
    moved = p.rotation @ pts_t + p.translation[:, None]
    gt_pts = gt.rotation @ pts_t + gt.translation[:, None]
    return float(np.abs(moved - gt_pts).sum(axis=0).mean())


def matrix_to_rot6d(m):
    """First two columns of a rotation matrix, flattened to 6 values."""
    m = np.asarray(m, dtype=float)
    return np.concatenate([m[:, 0], m[:, 1]])


def random_rotations(n, rng):
    """Uniform random rotation matrices (n, 3, 3)."""
    return quaternions_to_matrices(random_quaternions(n, rng))


def split(ds, domain):
    """The samples of one domain, every object."""
    return [s for s in ds.samples if s.domain == domain]
