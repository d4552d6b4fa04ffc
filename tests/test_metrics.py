"""ADD / ADD-S / recall tests with constructed and randomized oracles."""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
    random_rotations,
)
from poseadapt.metrics import (
    EvalRecord,
    add_metric,
    add_s_metric,
    average_recall,
    evaluate_pose,
    predict_poses,
    scalar_mae,
)
from poseadapt.network import NetworkConfig, PoseNetwork

CAM = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_pose(rng):
    rot = random_rotations(1, rng)[0]
    return Pose(rot, rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 1.8]))


class TestAdd:
    def setup_method(self):
        self.model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((5, 3)) * 0.4)

    def test_equal_poses(self):
        p = random_pose(np.random.default_rng(1))
        assert add_metric(p, p, self.model) == 0.0

    def test_pure_translation(self):
        gt = random_pose(np.random.default_rng(2))
        d = np.array([0.03, -0.04, 0.12])
        p = Pose(gt.rotation, gt.translation + d)
        assert add_metric(p, gt, self.model) == pytest.approx(np.linalg.norm(d), rel=1e-12)

    def test_matches_per_point_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, gt = random_pose(rng), random_pose(rng)
            want = np.mean([np.linalg.norm((p.rotation @ x + p.translation)
                                           - (gt.rotation @ x + gt.translation))
                            for x in self.model.points])
            assert add_metric(p, gt, self.model) == pytest.approx(want, rel=1e-12)

    def test_empty_model(self):
        empty = ObjectModel(points=np.zeros((0, 3)), diameter=0.0)
        with pytest.raises(InvalidArgumentError):
            add_metric(Pose(np.eye(3), np.zeros(3)), Pose(np.eye(3), np.zeros(3)), empty)


class TestAddS:
    def setup_method(self):
        self.model = ObjectModel.from_points(
            np.random.default_rng(4).standard_normal((6, 3)) * 0.4)

    def test_equal_poses(self):
        p = random_pose(np.random.default_rng(5))
        assert add_s_metric(p, p, self.model) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, gt = random_pose(rng), random_pose(rng)
            assert add_s_metric(p, gt, self.model) <= add_metric(p, gt, self.model) + 1e-12

    def test_symmetric_cloud_scores_zero(self):
        # cloud built to be exactly invariant under a half-turn
        rng = np.random.default_rng(7)
        base = rng.standard_normal((8, 3))
        sym = rot_z(np.pi)
        pts = np.vstack([base, base @ sym.T])
        model = ObjectModel.from_points(pts, symmetries=(np.eye(3), sym))
        gt = random_pose(rng)
        flipped = Pose(gt.rotation @ sym, gt.translation)
        assert add_s_metric(flipped, gt, model) == pytest.approx(0.0, abs=1e-9)
        assert add_metric(flipped, gt, model) > 0.01

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        p, gt = random_pose(rng), random_pose(rng)
        a = apply_pose(p, self.model.points)
        b = apply_pose(gt, self.model.points)
        want = np.mean([min(np.linalg.norm(ai - bj) for bj in b) for ai in a])
        assert add_s_metric(p, gt, self.model) == pytest.approx(want, rel=1e-12)


class TestEvaluatePose:
    def test_hit_uses_add_for_asymmetric(self):
        model = ObjectModel.from_points(
            np.random.default_rng(9).standard_normal((6, 3)) * 0.4)
        gt = Pose(np.eye(3), [0, 0, 1.0])
        near = Pose(np.eye(3), [0.08 * model.diameter, 0, 1.0])
        rec = evaluate_pose(near, gt, model, sample_id="x")
        assert rec.hit
        far = Pose(np.eye(3), [0.2 * model.diameter, 0, 1.0])
        assert not evaluate_pose(far, gt, model).hit

    def test_hit_uses_add_s_for_symmetric(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((8, 3))
        sym = rot_z(np.pi)
        pts = np.vstack([base, base @ sym.T])
        model = ObjectModel.from_points(pts, symmetries=(np.eye(3), sym))
        gt = random_pose(rng)
        flipped = Pose(gt.rotation @ sym, gt.translation)
        rec = evaluate_pose(flipped, gt, model)
        assert rec.hit                      # ADD-S forgives the symmetry flip
        assert rec.add > rec.add_s

    def test_record_invariant_add_s_le_add(self):
        model = ObjectModel.from_points(
            np.random.default_rng(11).standard_normal((6, 3)) * 0.4)
        rng = np.random.default_rng(12)
        for _ in range(50):
            rec = evaluate_pose(random_pose(rng), random_pose(rng), model)
            assert rec.add_s <= rec.add + 1e-12


class TestAverageRecall:
    def rec(self, hit):
        return EvalRecord(sample_id="", add=0.0, add_s=0.0, hit=hit)

    def test_all_hits(self):
        assert average_recall([self.rec(True)] * 4) == 100.0

    def test_half_hits(self):
        assert average_recall([self.rec(True), self.rec(False)]) == 50.0

    def test_permutation_invariant(self):
        a = [self.rec(True), self.rec(False), self.rec(True)]
        assert average_recall(a) == average_recall(list(reversed(a)))

    def test_empty_raises(self):
        with pytest.raises(InvalidArgumentError):
            average_recall([])

    def test_per_object_means_average(self):
        # table semantics: mean column equals the mean of per-object recalls
        per_object = [[self.rec(True)] * 3, [self.rec(True), self.rec(False)]]
        recalls = [average_recall(r) for r in per_object]
        assert np.mean(recalls) == pytest.approx((100.0 + 50.0) / 2)


class TestPredictPoses:
    def test_depth_fallback_keeps_positive_z(self):
        anchors = AnchorSet.build(4, 3, 3, 4, seed=0)
        cfg = NetworkConfig(obs_dim=5, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        # force a hugely negative depth residual on every anchor
        net.reg_heads["z"].layers[-1].b.data[:] = -10.0
        obs = np.random.default_rng(0).standard_normal((3, 5))
        poses, _ = predict_poses(net, obs, anchors, CAM)
        for p in poses:
            assert p.z > 0

    @pytest.mark.parametrize("negative_depth", [False, True])
    def test_zeroed_rotation_head_falls_back_to_anchor_rotation(self, negative_depth):
        anchors = AnchorSet.build(4, 3, 3, 4, seed=0)
        cfg = NetworkConfig(obs_dim=5, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        # every 6D rotation residual is the zero vector, which has no rotation
        net.reg_heads["rot"].layers[-1].w.data[:] = 0.0
        net.reg_heads["rot"].layers[-1].b.data[:] = 0.0
        if negative_depth:
            net.reg_heads["z"].layers[-1].b.data[:] = -10.0
        obs = np.random.default_rng(1).standard_normal((3, 5))
        poses, out = predict_poses(net, obs, anchors, CAM)
        picks = out.picks()
        for b, p in enumerate(poses):
            np.testing.assert_array_equal(p.rotation, anchors.rotations[picks["rot"][b]])
            assert p.z > 0
            if negative_depth:
                assert p.z == anchors.bins_z[picks["z"][b]]

    def test_scalar_mae(self):
        assert scalar_mae([1.0, 2.0], [1.5, 1.0]) == pytest.approx(0.75)
        with pytest.raises(InvalidArgumentError):
            scalar_mae([], [])
