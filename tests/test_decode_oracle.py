"""Bit-for-bit oracle for the batched pose decode.

The references below decode one sample at a time, as the package did
before its decode was batched: a 1-D Gram-Schmidt per 6D rotation, a retry
with the bin center on a non-positive depth and with the identity 6D
rotation on a degenerate one, and a scalar symmetry search per sample.
The batched ``compose_pose``, ``predict_poses``,
``closest_symmetric_rotation`` and ``resolve_symmetric_gt`` must give
exactly the same bits.
"""

import numpy as np
import pytest

from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    closest_symmetric_rotation,
    compose_pose,
)
from poseadapt.losses import resolve_symmetric_gt
from poseadapt.metrics import predict_poses
from poseadapt.network import NetworkConfig, PoseNetwork
from poseadapt.synth import make_object

from helpers import random_rotations

CAM = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def reference_rot6d_to_matrix(r):
    """One 6D rotation to a matrix; None when it has no rotation."""
    a1, a2 = r[:3], r[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-12:
        return None
    b1 = a1 / n1
    a2p = a2 - (b1 @ a2) * b1
    n2 = np.linalg.norm(a2p)
    if n2 < 1e-12:
        return None
    b2 = a2p / n2
    return np.stack([b1, b2, np.cross(b1, b2)], axis=1)


def reference_compose_pose(picks, residuals, anchors, cam):
    """One pose, retrying with the bare anchor where a residual breaks it."""
    i_rot, i_vx, i_vy, i_z = picks
    rot_res, dvx, dvy, dz = residuals
    z = float(anchors.bins_z[i_z] + dz)
    if z <= 0:
        z = float(anchors.bins_z[i_z] + 0.0)
    vx = float(anchors.bins_vx[i_vx] + dvx)
    vy = float(anchors.bins_vy[i_vy] + dvy)
    m = reference_rot6d_to_matrix(rot_res)
    if m is None:
        m = reference_rot6d_to_matrix(IDENTITY_6D)
    return m @ anchors.rotations[i_rot], np.array([vx * z / cam.fx, vy * z / cam.fy, z])


def reference_closest_symmetric_rotation(r_pred, r_gt, model):
    best, best_d = None, np.inf
    for s in model.symmetries:
        cand = r_gt @ s
        c = (np.trace(r_pred @ cand.T) - 1.0) / 2.0
        d = float(np.arccos(np.clip(c, -1.0, 1.0)))
        if d < best_d - 1e-15:
            best, best_d = cand, d
    return best


def awkward_rot6d(rng, n):
    """Random 6D rows with zero, parallel and nearly parallel rows mixed in."""
    r6 = rng.standard_normal((n, 6))
    r6[::7] = 0.0
    r6[1::7, 3:] = r6[1::7, :3] * 2.5
    r6[2::7, :3] = 0.0
    r6[3::7, 3:] = r6[3::7, :3] * -0.5 + 1e-13
    return r6


class TestComposePoseOracle:
    def test_matches_per_sample_decode(self):
        anchors = AnchorSet.build(12, 5, 5, 8, seed=1)
        rng = np.random.default_rng(0)
        n = 2000
        picks = [rng.integers(0, k, n) for k in (12, 5, 5, 8)]
        # depth residuals around minus the bin center, so about half cross zero
        dz = -anchors.bins_z[picks[3]] + rng.normal(0.0, 0.2, n)
        dz[::11] = 0.0
        residuals = (awkward_rot6d(rng, n), rng.normal(0, 30, n), rng.normal(0, 30, n), dz)
        rot, t = compose_pose(picks, residuals, anchors, CAM)
        assert (dz + anchors.bins_z[picks[3]] <= 0).sum() > n // 4
        for b in range(n):
            want_rot, want_t = reference_compose_pose([p[b] for p in picks],
                                                      [r[b] for r in residuals], anchors, CAM)
            np.testing.assert_array_equal(rot[b], want_rot)
            np.testing.assert_array_equal(t[b], want_t)


class FixedOutputNet:
    """Stands in for a network whose forward pass returns ``out``."""

    def __init__(self, out):
        self.out = out

    def forward(self, obs):
        return self.out


def crafted_output(seed, scalar=False):
    """A real forward pass with awkward residual rows written in: zero and
    parallel 6D rotations and depths that cross zero."""
    rng = np.random.default_rng(seed)
    n = (0, 0, 0) if scalar else (6, 4, 4)
    cfg = NetworkConfig(obs_dim=5, n_rot=n[0], n_vx=n[1], n_vy=n[2], n_z=5,
                        feature_dim=8, encoder_hidden=(8,), head_hidden=8)
    out = PoseNetwork(cfg, seed=seed).forward(rng.standard_normal((300, 5)))
    if not scalar:
        out.residuals["rot"].data[:] = awkward_rot6d(rng, 300 * 6).reshape(300, 6, 6)
    out.residuals["z"].data[:] = rng.normal(-0.6, 0.5, (300, 5))
    return out


@pytest.mark.parametrize("scalar", [False, True], ids=["pose", "scalar"])
def test_predict_poses_matches_per_sample_decode(scalar):
    anchors = (AnchorSet.build(1, 1, 1, 5, (-1.0, 1.0), (-1.0, 1.0), (0.5, 1.0)) if scalar
               else AnchorSet.build(6, 4, 4, 5, seed=2))
    out = crafted_output(3, scalar)
    poses, got_out = predict_poses(FixedOutputNet(out), np.zeros((300, 5)), anchors, CAM)
    assert got_out is out
    picks = out.picks()
    names, absent = ("rot", "vx", "vy", "z"), (IDENTITY_6D, 0.0, 0.0, 0.0)
    for b, p in enumerate(poses):
        i = [picks[k][b] if k in picks else 0 for k in names]
        res = [out.residuals[k].data[b, j] if k in out.residuals else d
               for k, j, d in zip(names, i, absent)]
        want_rot, want_t = reference_compose_pose(i, res, anchors, CAM)
        np.testing.assert_array_equal(p.rotation, want_rot)
        np.testing.assert_array_equal(p.translation, want_t)


class TestSymmetricResolutionOracle:
    def setup_method(self):
        self.cylinder = make_object("cylinder", seed=7, n_points=16)
        assert len(self.cylinder.symmetries) == 2

    def test_closest_symmetric_rotation_matches_per_sample(self):
        rng = np.random.default_rng(4)
        gt = random_rotations(1000, rng)
        pred = random_rotations(1000, rng)
        pred[::5] = gt[::5] @ self.cylinder.symmetries[1]   # exact hits
        pred[1::5] = gt[1::5]
        got = closest_symmetric_rotation(pred, gt, self.cylinder)
        for b in range(1000):
            np.testing.assert_array_equal(
                got[b], reference_closest_symmetric_rotation(pred[b], gt[b], self.cylinder))

    def test_resolve_symmetric_gt_matches_per_sample(self):
        anchors = AnchorSet.build(6, 4, 4, 5, seed=2)
        out = crafted_output(5)
        gt = random_rotations(300, np.random.default_rng(6))
        got = resolve_symmetric_gt(out, gt, anchors, self.cylinder)
        picks = np.argmax(out.probs["rot"].data, axis=1)
        for b, i in enumerate(picks):
            pred, _ = reference_compose_pose((i, 0, 0, 0), (out.residuals["rot"].data[b, i],
                                                            0.0, 0.0, 0.0), anchors, CAM)
            np.testing.assert_array_equal(
                got[b], reference_closest_symmetric_rotation(pred, gt[b], self.cylinder))
