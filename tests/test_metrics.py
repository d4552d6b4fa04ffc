"""ADD / ADD-S / recall tests with constructed and randomized oracles.

``tests/test_eval_oracle.py`` checks the batched scores bit for bit
against the per-sample references.
"""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
)
from poseadapt.metrics import (
    average_recall,
    evaluate_pose,
    predict_poses,
    scalar_mae,
)
from poseadapt.network import NetworkConfig, PoseNetwork

from helpers import ANCHOR_RANGES, random_rotations

CAM = CameraIntrinsics(fx=600.0, fy=600.0)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_pose(rng):
    rot = random_rotations(1, rng)[0]
    return Pose(rot, rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 1.8]))


def random_poses(rng, n):
    return Pose(random_rotations(n, rng), rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 1.8], (n, 3)))


def declared_symmetric(model):
    """The same points with a half-turn symmetry declared, so that
    ``evaluate_pose`` computes ADD-S."""
    return ObjectModel(model.points, model.diameter, (np.eye(3), rot_z(np.pi)))


class TestAdd:
    def setup_method(self):
        self.model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((5, 3)) * 0.4)

    def test_equal_poses(self):
        p = random_pose(np.random.default_rng(1))
        assert evaluate_pose(p, p, self.model).add == 0.0

    def test_pure_translation(self):
        gt = random_pose(np.random.default_rng(2))
        d = np.array([0.03, -0.04, 0.12])
        p = Pose(gt.rotation, gt.translation + d)
        assert evaluate_pose(p, gt, self.model).add == pytest.approx(np.linalg.norm(d),
                                                                     rel=1e-12)

    def test_matches_per_point_arithmetic(self):
        rng = np.random.default_rng(3)
        p, gt = random_poses(rng, 20), random_poses(rng, 20)
        got = evaluate_pose(p, gt, self.model).add
        for b in range(20):
            want = np.mean([np.linalg.norm((p.rotation[b] @ x + p.translation[b])
                                           - (gt.rotation[b] @ x + gt.translation[b]))
                            for x in self.model.points])
            assert got[b] == pytest.approx(want, rel=1e-12)

    def test_empty_model(self):
        """ADD needs model points: an empty model is refused when built."""
        with pytest.raises(InvalidArgumentError, match="not finite, nonempty"):
            ObjectModel(points=np.zeros((0, 3)), diameter=1.0)


class TestAddS:
    def setup_method(self):
        self.model = declared_symmetric(ObjectModel.from_points(
            np.random.default_rng(4).standard_normal((6, 3)) * 0.4))

    def test_equal_poses(self):
        p = random_pose(np.random.default_rng(5))
        assert evaluate_pose(p, p, self.model).add_s == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(6)
        rec = evaluate_pose(random_poses(rng, 200), random_poses(rng, 200), self.model)
        assert np.all(rec.add_s <= rec.add + 1e-12)

    def test_symmetric_cloud_scores_zero(self):
        # cloud built to be exactly invariant under a half-turn
        rng = np.random.default_rng(7)
        base = rng.standard_normal((8, 3))
        sym = rot_z(np.pi)
        pts = np.vstack([base, base @ sym.T])
        model = ObjectModel.from_points(pts, symmetries=(np.eye(3), sym))
        gt = random_pose(rng)
        rec = evaluate_pose(Pose(gt.rotation @ sym, gt.translation), gt, model)
        assert rec.add_s == pytest.approx(0.0, abs=1e-9)
        assert rec.add > 0.01

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        p, gt = random_poses(rng, 4), random_poses(rng, 4)
        got = evaluate_pose(p, gt, self.model).add_s
        for b, (a, g) in enumerate(zip(apply_pose(p, self.model.points),
                                       apply_pose(gt, self.model.points))):
            want = np.mean([min(np.linalg.norm(ai - gj) for gj in g) for ai in a])
            assert got[b] == pytest.approx(want, rel=1e-12)


class TestEvaluatePose:
    def test_hit_uses_add_for_asymmetric(self):
        model = ObjectModel.from_points(
            np.random.default_rng(9).standard_normal((6, 3)) * 0.4)
        gt = Pose(np.eye(3), [0, 0, 1.0])
        near = Pose(np.eye(3), [0.08 * model.diameter, 0, 1.0])
        far = Pose(np.eye(3), [0.2 * model.diameter, 0, 1.0])
        rec = evaluate_pose(Pose.stack([near, far]), Pose.stack([gt, gt]), model)
        assert rec.hit.tolist() == [True, False]
        assert rec.add_s is None

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
        model = declared_symmetric(ObjectModel.from_points(
            np.random.default_rng(11).standard_normal((6, 3)) * 0.4))
        rng = np.random.default_rng(12)
        rec = evaluate_pose(random_poses(rng, 50), random_poses(rng, 50), model)
        assert rec.add.shape == rec.add_s.shape == rec.hit.shape == (50,)
        assert np.all(rec.add_s <= rec.add + 1e-12)

    def test_one_ground_truth_broadcasts_over_a_stack(self):
        model = declared_symmetric(ObjectModel.from_points(
            np.random.default_rng(13).standard_normal((6, 3)) * 0.4))
        rng = np.random.default_rng(14)
        pred, gt = random_poses(rng, 3), random_pose(rng)
        rec = evaluate_pose(pred, gt, model)
        want = evaluate_pose(pred, Pose.stack([gt] * 3), model)
        for name in ("add", "add_s", "hit"):
            np.testing.assert_array_equal(getattr(rec, name), getattr(want, name))


class TestAverageRecall:
    def test_all_hits(self):
        assert average_recall(np.ones(4, dtype=bool)) == 100.0

    def test_half_hits(self):
        assert average_recall(np.array([True, False])) == 50.0

    def test_permutation_invariant(self):
        a = np.array([True, False, True])
        assert average_recall(a) == average_recall(a[::-1])

    def test_empty_raises(self):
        with pytest.raises(InvalidArgumentError):
            average_recall(np.zeros(0, dtype=bool))

    def test_per_object_means_average(self):
        # table semantics: mean column equals the mean of per-object recalls
        per_object = [np.ones(3, dtype=bool), np.array([True, False])]
        recalls = [average_recall(r) for r in per_object]
        assert np.mean(recalls) == pytest.approx((100.0 + 50.0) / 2)

    def test_exact_formula(self):
        # 100 * count / n; 100 * mean would give 33.33333333333333
        assert average_recall(np.array([True, False, False])) == 100.0 * 1 / 3


class TestPredictPoses:
    def test_depth_fallback_keeps_positive_z(self):
        anchors = AnchorSet.build(4, 3, 3, 4, *ANCHOR_RANGES, seed=0)
        cfg = NetworkConfig(obs_dim=5, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        # force a hugely negative depth residual on every anchor
        net.reg_heads["z"].layers[-1].b[:] = -10.0
        obs = np.random.default_rng(0).standard_normal((3, 5))
        poses, _ = predict_poses(net, obs, anchors, CAM)
        for p in poses:
            assert p.z > 0

    @pytest.mark.parametrize("negative_depth", [False, True])
    def test_zeroed_rotation_head_falls_back_to_anchor_rotation(self, negative_depth):
        anchors = AnchorSet.build(4, 3, 3, 4, *ANCHOR_RANGES, seed=0)
        cfg = NetworkConfig(obs_dim=5, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        # every 6D rotation residual is the zero vector, which has no rotation
        net.reg_heads["rot"].layers[-1].w[:] = 0.0
        net.reg_heads["rot"].layers[-1].b[:] = 0.0
        if negative_depth:
            net.reg_heads["z"].layers[-1].b[:] = -10.0
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
