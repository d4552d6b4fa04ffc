"""Objective tests: exact examples, brute-force oracles, gradient spot checks."""

import numpy as np
import pytest

from poseadapt import losses
from poseadapt.config import config_from_dict
from poseadapt.errors import (
    DegenerateFeatureError,
    InvalidArgumentError,
    ShapeError,
)
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
    closest_symmetric_rotation,
    generate_translation_bins,
    gram_schmidt,
    pose_targets,
    rot6d_to_matrix,
)
from poseadapt.experiment import build_camera, build_stage
from poseadapt.labeling import ScoreConfig, nearest_anchors
from poseadapt.losses import (
    LOG_EPS,
    ObjectiveConfig,
    batch_feature_graph,
    build_target_graph,
    classification_loss,
    prepare_batch_supervision,
    regression_loss_batch,
    resolve_symmetric_gt,
    soft_cross_entropy,
    target_correlation_loss,
    total_objective,
)
from poseadapt.network import ROT6D_IDENTITY, NetworkConfig, PoseNetwork
from poseadapt.synth import make_dataset, make_domain_config, make_object

from helpers import (
    ANCHOR_RANGES,
    SAMPLE_RANGES,
    float64_twin,
    matrix_to_rot6d,
    named_gradients,
    nearest_bin,
    point_matching_distance,
    random_rotations,
)

CAM = CameraIntrinsics(fx=600.0, fy=600.0)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def geodesic_distance(r1, r2):
    """Angle between two rotations, from the trace of r1 r2^T."""
    return float(np.arccos(np.clip((np.trace(r1 @ r2.T) - 1.0) / 2.0, -1.0, 1.0)))


def small_anchors(n_rot=8, n_vx=5, n_vy=5, n_z=6):
    return AnchorSet.build(n_rot, n_vx, n_vy, n_z, *ANCHOR_RANGES, seed=0)


def small_label_config():
    """Label parameters sized for the small test anchor sets: k = 4 for
    rotation, 3 for each translation branch."""
    return ScoreConfig(rotation=(0.7, 0.1, 4), translation=(0.6, 0.2, 3))


def objective(anchors, labels=None, use_cls=True, ctc_weight=1.0):
    """An objective over ``anchors`` with the depth graph the pipeline builds."""
    return ObjectiveConfig(labels=labels or small_label_config(), use_cls=use_cls,
                           ctc_weight=ctc_weight,
                           target_graph=build_target_graph(anchors.bins_z, *anchors.z_range))


def supervision(gt_poses, anchors, labels=None):
    """Supervision of a list of poses, stacked as the training loop does."""
    return prepare_batch_supervision(Pose.stack(gt_poses), anchors, CAM,
                                     objective(anchors, labels))


def random_pose(rng, z_range=(0.5, 1.8)):
    rot = random_rotations(1, rng)[0]
    vx, vy = rng.uniform(-150, 150, 2)
    z = rng.uniform(*z_range)
    return Pose(rot, [vx * z / CAM.fx, vy * z / CAM.fy, z])


class TestSoftCrossEntropy:
    def test_one_hot_uniform_gives_log_n(self):
        n = 32
        labels = np.zeros(n)
        labels[3] = 1.0
        probs = np.full(n, 1.0 / n)
        assert soft_cross_entropy(probs, labels)[0] == pytest.approx(np.log(n), rel=1e-9)

    def test_probs_equal_labels_gives_entropy(self):
        labels = np.array([0.7, 0.1, 0.1, 0.1])
        entropy = -(labels * np.log(labels)).sum()
        got = soft_cross_entropy(labels, labels)[0]
        assert got == pytest.approx(entropy, rel=1e-6)
        # Gibbs: any other distribution scores worse
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.dirichlet(np.ones(4))
            assert soft_cross_entropy(q, labels)[0] >= got - 1e-9

    def test_sparse_label_against_uniform_60(self):
        labels = np.zeros(60)
        labels[[0, 1, 2, 3]] = [0.7, 0.1, 0.1, 0.1]
        probs = np.full(60, 1.0 / 60)
        assert soft_cross_entropy(probs, labels)[0] == pytest.approx(np.log(60), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            soft_cross_entropy(np.ones(4) / 4, np.ones(5) / 5)

    def test_batched(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = soft_cross_entropy(probs, labels)[0]
        np.testing.assert_allclose(
            got, [-np.log(0.5 + LOG_EPS), -np.log(0.1 + LOG_EPS)], rtol=1e-9)


class TestPointMatchingDistance:
    def setup_method(self):
        self.model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((5, 3)))

    def test_equal_poses_give_zero(self):
        p = random_pose(np.random.default_rng(1))
        assert point_matching_distance(p, p, self.model) == pytest.approx(0.0, abs=1e-12)

    def test_pure_shift_gives_l1_norm(self):
        gt = random_pose(np.random.default_rng(2))
        shift = np.array([0.2, -0.3, 0.15])
        p = Pose(gt.rotation, gt.translation + shift)
        assert point_matching_distance(p, gt, self.model) == pytest.approx(
            np.abs(shift).sum(), rel=1e-12)

    def test_matches_per_point_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, gt = random_pose(rng), random_pose(rng)
            got = point_matching_distance(p, gt, self.model)
            want = np.mean([np.abs((p.rotation @ x + p.translation)
                                   - (gt.rotation @ x + gt.translation)).sum()
                            for x in self.model.points])
            assert got == pytest.approx(want, rel=1e-12)

    def test_empty_model_raises(self):
        """The loss needs model points: an empty model is refused when built."""
        with pytest.raises(InvalidArgumentError, match="not finite, nonempty"):
            ObjectModel(points=np.zeros((0, 3)), diameter=1.0)


def brute_force_regression_loss(out, b, gt_pose, anchors, model, cam,
                                k_rot, k_z, k_vx, k_vy=None):
    """Independent reimplementation for batch row ``b``: explicit python
    loops over neighbor sets, substituting one target at a time into the
    ground truth and measuring point-set distances point by point."""
    rot_res = out.residuals["rot"][b]
    vx_res = out.residuals["vx"][b]
    vy_res = out.residuals["vy"][b]
    z_res = out.residuals["z"][b]
    gt_rot_raw, vx_t, vy_t, z_t = pose_targets(gt_pose, cam)
    x_t, y_t, _ = gt_pose.translation
    if model.is_symmetric:
        pick = int(np.argmax(out.probs["rot"][b]))
        pred = rot6d_to_matrix(rot_res[pick]) @ anchors.rotations[pick]
        gt_rot = closest_symmetric_rotation(pred[None], gt_rot_raw[None], model)[0]
    else:
        gt_rot = gt_rot_raw
    gt_used = Pose(gt_rot, gt_pose.translation)

    def dist(p):
        return np.mean([np.abs(apply_pose(p, model.points[i:i + 1])[0]
                               - apply_pose(gt_used, model.points[i:i + 1])[0]).sum()
                        for i in range(len(model.points))])

    def nearest(bins, target, k):
        return sorted(range(len(bins)), key=lambda i: (abs(bins[i] - target), i))[:k]

    total = 0.0
    dists = [geodesic_distance(a, gt_rot) for a in anchors.rotations]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k_rot]
    for i in order:
        rot_i = rot6d_to_matrix(rot_res[i]) @ anchors.rotations[i]
        total += dist(Pose(rot_i, gt_pose.translation))
    for i in nearest(anchors.bins_z, z_t, k_z):
        z_i = anchors.bins_z[i] + z_res[i]
        total += dist(Pose(gt_rot, [vx_t * z_i / cam.fx, vy_t * z_i / cam.fy, z_i]))
    for i in nearest(anchors.bins_vx, vx_t, k_vx):
        vx_i = anchors.bins_vx[i] + vx_res[i]
        total += dist(Pose(gt_rot, [vx_i * z_t / cam.fx, y_t, z_t]))
    for i in nearest(anchors.bins_vy, vy_t, k_vx if k_vy is None else k_vy):
        vy_i = anchors.bins_vy[i] + vy_res[i]
        total += dist(Pose(gt_rot, [x_t, vy_i * z_t / cam.fy, z_t]))
    return total


class TestRegressionLoss:
    def setup_method(self):
        self.anchors = small_anchors()
        self.model = ObjectModel.from_points(
            np.random.default_rng(1).standard_normal((5, 3)) * 0.3)
        self.netcfg = NetworkConfig(obs_dim=6, n_rot=8, n_vx=5, n_vy=5, n_z=6,
                                    feature_dim=8, encoder_hidden=(8,), head_hidden=8)

    def _out(self, seed=0, batch=1):
        # float64 outputs: the terms compute in their inputs' dtype
        net = float64_twin(PoseNetwork(self.netcfg, seed=seed))
        return net.forward(np.random.default_rng(seed).standard_normal((batch, 6)))

    def test_perfect_residuals_give_zero(self):
        rng = np.random.default_rng(2)
        gt = random_pose(rng)
        out = self._out()
        rot, vx, vy, z = pose_targets(gt, CAM)
        # craft residuals that exactly reproduce the ground truth per anchor
        for i in range(self.anchors.n_rot):
            out.residuals["rot"][0, i] = matrix_to_rot6d(
                rot @ self.anchors.rotations[i].T)
        out.residuals["vx"][0] = vx - self.anchors.bins_vx
        out.residuals["vy"][0] = vy - self.anchors.bins_vy
        out.residuals["z"][0] = z - self.anchors.bins_z
        loss, _ = regression_loss_batch(out, supervision([gt], self.anchors), self.anchors,
                                        self.model, CAM)
        assert loss[0] == pytest.approx(0.0, abs=1e-9)

    def test_anchor_aligned_gt_with_zero_residuals(self):
        out = self._out()
        for name in ("rot", "vx", "vy", "z"):
            out.residuals[name][:] = 0.0
        for i in range(self.anchors.n_rot):
            out.residuals["rot"][0, i] = [1, 0, 0, 0, 1, 0]
        k = 2
        vx = self.anchors.bins_vx[k]
        vy = self.anchors.bins_vy[1]
        z = self.anchors.bins_z[3]
        gt = Pose(self.anchors.rotations[5],
                  [vx * z / CAM.fx, vy * z / CAM.fy, z])
        one_hot = (1.0, 0.0, 1)
        sup = supervision([gt], self.anchors, ScoreConfig(one_hot, one_hot))
        loss, _ = regression_loss_batch(out, sup, self.anchors, self.model, CAM)
        assert loss[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            gt = [random_pose(rng) for _ in range(5)]
            out = self._out(seed=trial, batch=5)
            got, _ = regression_loss_batch(out, supervision(gt, self.anchors), self.anchors,
                                           self.model, CAM)
            for b in range(5):
                want = brute_force_regression_loss(out, b, gt[b], self.anchors,
                                                   self.model, CAM, 4, 3, 3)
                assert got[b] == pytest.approx(want, rel=1e-9)

    def test_matches_brute_force_symmetric(self):
        sym_model = ObjectModel.from_points(
            np.random.default_rng(1).standard_normal((6, 3)) * 0.3,
            symmetries=(np.eye(3), rot_z(np.pi)))
        rng = np.random.default_rng(4)
        for trial in range(2):
            gt = [random_pose(rng) for _ in range(5)]
            out = self._out(seed=100 + trial, batch=5)
            got, _ = regression_loss_batch(out, supervision(gt, self.anchors), self.anchors,
                                           sym_model, CAM)
            for b in range(5):
                want = brute_force_regression_loss(out, b, gt[b], self.anchors,
                                                   sym_model, CAM, 4, 3, 3)
                assert got[b] == pytest.approx(want, rel=1e-9)

    def test_k_clipped_to_anchor_count(self):
        """A label k above a branch's anchor count supervises every anchor."""
        rng = np.random.default_rng(5)
        gt = [random_pose(rng) for _ in range(3)]
        anchors = AnchorSet.build(3, 2, 5, 6, *ANCHOR_RANGES, seed=0)
        net = float64_twin(PoseNetwork(NetworkConfig(obs_dim=6, n_rot=3, n_vx=2, n_vy=5, n_z=6,
                                                     feature_dim=8, encoder_hidden=(8,),
                                                     head_hidden=8), seed=0))
        out = net.forward(rng.standard_normal((3, 6)))
        # default labels: k = 4 for rotation, 7 for each translation branch
        sup = prepare_batch_supervision(Pose.stack(gt), anchors, CAM,
                                        objective(anchors, ScoreConfig(), use_cls=False))
        assert sup.labels == {}
        assert [sup.nearest[name].shape[1] for name in ("rot", "vx", "vy", "z")] == [3, 2, 5, 6]
        got, _ = regression_loss_batch(out, sup, anchors, self.model, CAM)
        for b in range(3):
            want = brute_force_regression_loss(out, b, gt[b], anchors, self.model, CAM,
                                               3, 6, 2, k_vy=5)
            assert got[b] == pytest.approx(want, rel=1e-9)


class TestTargetGraph:
    def test_angle_arithmetic(self):
        """A bin gap of a quarter of the range is an angle of pi/8; the
        graph does not depend on where the bins sit in the range."""
        g0 = build_target_graph(np.array([0.5, 1.0]), 0.0, 2.0)
        assert g0[0, 1] == pytest.approx(np.cos(np.pi / 8), rel=1e-15)
        np.testing.assert_allclose(build_target_graph(np.array([1.5, 2.0]), 0.0, 2.0), g0,
                                   rtol=1e-15)
        assert build_target_graph(np.array([2.0]), 0.0, 2.0).tolist() == [[1.0]]

    def test_diagonal_is_one(self):
        g0 = build_target_graph(generate_translation_bins(0, 2, 40), 0.0, 2.0)
        assert g0.shape == (40, 40)
        np.testing.assert_allclose(np.diag(g0), 1.0)
        np.testing.assert_allclose(g0, g0.T)

    def test_extreme_angle_difference(self):
        g0 = build_target_graph(np.array([0.0, 2.0]), 0.0, 2.0)
        assert g0[0, 1] == pytest.approx(np.cos(np.pi / 2), abs=1e-12)

    def test_entries_nonincreasing_in_angle_gap(self):
        g0 = build_target_graph(generate_translation_bins(0, 2, 40), 0.0, 2.0)
        assert np.all(np.diff(g0[0]) <= 1e-12)

    def test_entries_in_unit_interval(self):
        g0 = build_target_graph(generate_translation_bins(0.5, 1.0, 20), 0.5, 1.0)
        assert np.all(g0 >= 0.0) and np.all(g0 <= 1.0)


class TestFeatureGraph:
    def test_identical_vectors(self):
        f = np.tile([1.0, 2.0, 3.0], (2, 1))
        g = batch_feature_graph(f)[0]
        np.testing.assert_allclose(g, 1.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        f = np.array([[1.0, 0.0], [0.0, 2.0]])
        g = batch_feature_graph(f)[0]
        assert g[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_pairwise_computation(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((8, 16))
        g = batch_feature_graph(f)[0]
        for i in range(8):
            for j in range(8):
                want = f[i] @ f[j] / (np.linalg.norm(f[i]) * np.linalg.norm(f[j]))
                assert g[i, j] == pytest.approx(want, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((5, 8))
        scales = rng.uniform(0.1, 10.0, (5, 1))
        np.testing.assert_allclose(batch_feature_graph(f)[0],
                                   batch_feature_graph(f * scales)[0], atol=1e-12)

    def test_zero_norm_raises(self):
        f = np.zeros((3, 4))
        with pytest.raises(DegenerateFeatureError):
            batch_feature_graph(f)


class TestCorrelationLoss:
    def setup_method(self):
        self.g0 = build_target_graph(generate_translation_bins(0, 2, 10), 0.0, 2.0)

    def test_exact_match_gives_zero(self):
        classes = np.array([0, 3, 7])
        g = self.g0[classes[:, None], classes[None, :]]
        assert target_correlation_loss(g, classes, self.g0)[0] == pytest.approx(0.0)

    def test_two_by_two_expansion(self):
        classes = np.array([2, 2])  # target graph entries all 1
        a = 0.4
        g = np.array([[1.0, a], [a, 1.0]])
        b = 1.0
        want = 2 * (a - b) ** 2
        assert target_correlation_loss(g, classes, self.g0)[0] == pytest.approx(want)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            classes = rng.integers(0, 10, 6)
            g = rng.uniform(-1, 1, (6, 6))
            got = target_correlation_loss(g, classes, self.g0)[0]
            want = sum((g[i, j] - self.g0[classes[i], classes[j]]) ** 2
                       for i in range(6) for j in range(6))
            assert got == pytest.approx(want, rel=1e-12)

    def test_index_out_of_range(self):
        for classes in ([0, 99], [0, 10], [-1, 0]):   # the graph has 10 classes
            with pytest.raises(InvalidArgumentError):
                target_correlation_loss(np.eye(2), np.array(classes), self.g0)

    def test_depth_class_is_the_first_z_neighbour(self):
        """The correlation term reads each row's depth class as its first
        z neighbour in the supervision: the nearest bin, the lower one on
        a tie (1.0 sits midway between 0.75 and 1.25)."""
        anchors = small_anchors(n_z=4)
        np.testing.assert_array_equal(anchors.bins_z, [0.25, 0.75, 1.25, 1.75])
        sup = supervision([Pose(np.eye(3), [0.0, 0.0, z]) for z in (0.3, 1.9, 1.0)], anchors)
        np.testing.assert_array_equal(sup.nearest["z"][:, 0], [0, 3, 1])
        rng = np.random.default_rng(12)
        sup = supervision([random_pose(rng) for _ in range(50)], anchors)
        np.testing.assert_array_equal(sup.nearest["z"][:, 0], nearest_bin(sup.z, anchors.bins_z))


class TestTotalObjective:
    def setup_method(self):
        self.anchors = small_anchors()
        self.model = ObjectModel.from_points(
            np.random.default_rng(1).standard_normal((5, 3)) * 0.3)
        self.netcfg = NetworkConfig(obs_dim=6, n_rot=8, n_vx=5, n_vy=5, n_z=6,
                                    feature_dim=8, encoder_hidden=(8,), head_hidden=8)
        self.cfg = objective(self.anchors)

    def test_empty_batch_raises(self):
        net = PoseNetwork(self.netcfg, seed=0)
        out = net.forward(np.zeros((1, 6)))
        sup = supervision([random_pose(np.random.default_rng(9))], self.anchors)
        with pytest.raises(InvalidArgumentError):
            total_objective(out, sup[:0], self.anchors, self.model, CAM, self.cfg)

    def test_batch_of_one_reduces_to_sample_loss(self):
        rng = np.random.default_rng(9)
        gt = random_pose(rng)
        net = PoseNetwork(self.netcfg, seed=0)
        out = net.forward(rng.standard_normal((1, 6)))
        # zero out the correlation term: single sample graph is [[1]], target 1
        sup = supervision([gt], self.anchors)
        bd = total_objective(out, sup, self.anchors, self.model, CAM, self.cfg)
        cls, _ = classification_loss(out, sup)
        reg, _ = regression_loss_batch(out, sup, self.anchors, self.model, CAM)
        assert bd.total_value == pytest.approx(cls[0] + reg[0], rel=1e-9)

    def test_duplicating_samples_keeps_pose_loss(self):
        rng = np.random.default_rng(10)
        gt = [random_pose(rng) for _ in range(3)]
        obs = rng.standard_normal((3, 6))
        net = float64_twin(PoseNetwork(self.netcfg, seed=1))
        cfg = objective(self.anchors, ctc_weight=0.0)
        bd1 = total_objective(net.forward(obs), supervision(gt, self.anchors), self.anchors,
                              self.model, CAM, cfg)
        obs2 = np.vstack([obs, obs])
        bd2 = total_objective(net.forward(obs2), supervision(gt + gt, self.anchors),
                              self.anchors, self.model, CAM, cfg)
        assert bd1.total_value == pytest.approx(bd2.total_value, rel=1e-9)

    def test_composition_oracle(self):
        rng = np.random.default_rng(11)
        gt = [random_pose(rng) for _ in range(4)]
        obs = rng.standard_normal((4, 6))
        net = PoseNetwork(self.netcfg, seed=2)
        out = net.forward(obs)
        sup = supervision(gt, self.anchors)
        bd = total_objective(out, sup, self.anchors, self.model, CAM, self.cfg)
        # independent composition from the separately computed pieces
        cls, _ = classification_loss(out, sup)
        reg, _ = regression_loss_batch(out, sup, self.anchors, self.model, CAM)
        classes = nearest_bin([p.z for p in gt], self.anchors.bins_z)
        corr, _ = target_correlation_loss(batch_feature_graph(out.feature)[0],
                                          classes, self.cfg.target_graph)
        want = np.mean(cls + reg) + corr
        assert bd.total_value == pytest.approx(want, rel=1e-9)
        assert bd.cls_value == pytest.approx(np.mean(cls), rel=1e-9)
        assert bd.reg_value == pytest.approx(np.mean(reg), rel=1e-9)
        assert bd.corr_value == pytest.approx(corr, rel=1e-9)

    def test_zeroed_rotation_head_on_symmetric_model(self):
        """A zero 6D residual on a symmetric object resolves the ground truth
        against the bare anchor rotation instead of raising, and trains as
        the identity residual with a zero gradient."""
        cylinder = make_object("cylinder", seed=7, n_points=16)
        net = PoseNetwork(self.netcfg, seed=4)
        last = net.reg_heads["rot"].layers[-1]
        last.w[:] = 0.0
        last.b[:] = 0.0
        rng = np.random.default_rng(15)
        gt = [random_pose(rng) for _ in range(6)]
        obs = rng.standard_normal((6, 6))
        out = net.forward(obs)
        sup = supervision(gt, self.anchors)
        bd = total_objective(out, sup, self.anchors, cylinder, CAM, self.cfg)
        assert np.isfinite([bd.cls_value, bd.reg_value, bd.corr_value]).all()
        _, reg_grad = regression_loss_batch(out, sup, self.anchors, cylinder, CAM)
        np.testing.assert_array_equal(reg_grad(np.ones(6))["rot"], 0.0)
        bd.total.backward()
        np.testing.assert_array_equal(last.gw, 0.0)
        np.testing.assert_array_equal(last.gb, 0.0)
        last.b[:] = np.tile(ROT6D_IDENTITY, self.anchors.n_rot)
        identity = total_objective(net.forward(obs), sup, self.anchors, cylinder, CAM, self.cfg)
        assert bd.reg_value == identity.reg_value
        picks = np.argmax(out.probs["rot"], axis=1)
        resolved = resolve_symmetric_gt(out, sup.rotation, self.anchors, cylinder)
        for b, p in enumerate(gt):
            cands = [p.rotation @ s for s in cylinder.symmetries]
            dists = [geodesic_distance(self.anchors.rotations[picks[b]], c) for c in cands]
            np.testing.assert_array_equal(resolved[b], cands[int(np.argmin(dists))])

    def test_backward_runs_once_and_only_with_gradients(self):
        gt = [random_pose(np.random.default_rng(16)) for _ in range(2)]
        net = PoseNetwork(self.netcfg, seed=5)
        obs = np.random.default_rng(17).standard_normal((2, 6))
        bd = total_objective(net.forward(obs), supervision(gt, self.anchors), self.anchors,
                             self.model, CAM, self.cfg)
        bd.total.backward()
        with pytest.raises(InvalidArgumentError, match="back-propagated already"):
            bd.total.backward()
        bd = total_objective(net.forward(obs, train=False), supervision(gt, self.anchors),
                             self.anchors, self.model, CAM, self.cfg)
        with pytest.raises(InvalidArgumentError, match="without gradients"):
            bd.total.backward()

    def test_all_losses_nonnegative(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            gt = [random_pose(rng) for _ in range(3)]
            net = PoseNetwork(self.netcfg, seed=trial)
            out = net.forward(rng.standard_normal((3, 6)))
            bd = total_objective(out, supervision(gt, self.anchors), self.anchors,
                                 self.model, CAM, self.cfg)
            assert bd.cls_value >= 0 and bd.reg_value >= 0 and bd.corr_value >= 0


def pipeline_stage(kind, stage):
    """One object's dataset, the anchors, objective and a network of
    ``stage``, as ``run_train`` builds them, and the source supervision."""
    cfg = config_from_dict({"network": {"feature_dim": 16, "encoder_hidden": [32],
                                        "head_hidden": 8}})
    dc = make_domain_config(0.0, 0.02, 0.0, seed=1)
    ds = make_dataset(16, 1, [make_object(kind, seed=1, n_points=16)], build_camera(cfg),
                      dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors, net_cfg, objective = build_stage(cfg, ds, stage)
    sup = prepare_batch_supervision(ds.source.gt_pose, anchors, ds.cam, objective)
    return ds, anchors, PoseNetwork(net_cfg, seed=0), objective, sup


class TestNeighbourSearches:
    @pytest.mark.parametrize("kind, searches", [("box", 0), ("cylinder", 1), ("blob", 0)])
    def test_only_a_symmetric_model_searches_per_step(self, monkeypatch, kind, searches):
        """A step reads the rotation neighbours of the training set's
        search; only the cylinder, whose resolved ground truth follows the
        prediction, searches again."""
        ds, anchors, net, objective, sup = pipeline_stage(kind, "teacher")
        assert ds.objects[0].is_symmetric == (kind == "cylinder")
        calls = []

        def counting(*args):
            calls.append(args)
            return nearest_anchors(*args)

        monkeypatch.setattr(losses, "nearest_anchors", counting)
        total_objective(net.forward(ds.source.observation[:8]), sup[:8], anchors, ds.objects[0],
                        ds.cam, objective)
        assert len(calls) == searches

    @pytest.mark.parametrize("kind", ["box", "cylinder"])
    def test_rotation_neighbours_are_those_of_the_ground_truth(self, kind):
        """The supervision keeps the labels' k nearest rotation anchors of
        the raw ground truth; the baseline's one anchor is every row's
        neighbour."""
        ds, anchors, _, objective, sup = pipeline_stage(kind, "teacher")
        rotation, k = ds.source.gt_pose.rotation, objective.labels.branch("rot").k
        np.testing.assert_array_equal(sup.nearest["rot"],
                                      nearest_anchors(rotation, anchors.rotations, k))
        sup = pipeline_stage(kind, "baseline-regression")[4]
        np.testing.assert_array_equal(sup.nearest["rot"], np.zeros((len(rotation), 1)))


class TestRot6dTensorPath:
    """The decode of the rotation loss is ``geometry.gram_schmidt``, with
    the matrices of prediction and a gradient map."""

    def test_matches_numpy_version(self):
        rng = np.random.default_rng(13)
        r6 = rng.standard_normal((4, 6))
        got = gram_schmidt(r6)[0]
        np.testing.assert_array_equal(got, rot6d_to_matrix(r6))

    def test_degenerate_rows_give_identity_and_zero_gradient(self):
        rng = np.random.default_rng(14)
        r6 = rng.standard_normal((5, 6))
        r6[1] = 0.0                          # vanishing first vector
        r6[3, 3:] = 2.0 * r6[3, :3]          # parallel vectors
        m, grad = gram_schmidt(r6)
        np.testing.assert_allclose(m, rot6d_to_matrix(r6), atol=1e-12)
        np.testing.assert_array_equal(m[[1, 3]], np.tile(np.eye(3), (2, 1, 1)))
        g = grad(rng.standard_normal(m.shape))
        np.testing.assert_array_equal(g[[1, 3]], 0.0)
        assert np.isfinite(g).all() and np.all(g[[0, 2, 4]] != 0.0)


class TestGradientSpotChecks:
    """Central finite differences through each loss; the acceptance suite
    repeats this at scale."""

    def _check_gradients(self, value_fn, net, n_probe=20, h=1e-4, seed=0):
        """Backward once, snapshot every gradient, then probe random
        parameter entries with central finite differences."""
        value_fn().backward()
        grads = {k: g.copy() for k, g in named_gradients(net).items()}
        params = net.parameters()
        rng = np.random.default_rng(seed)
        names = list(params)
        for _ in range(n_probe):
            name = names[rng.integers(len(names))]
            p = params[name]
            idx = np.unravel_index(rng.integers(p.size), p.shape)
            orig = p[idx]
            p[idx] = orig + h
            hi = value_fn().item()
            p[idx] = orig - h
            lo = value_fn().item()
            p[idx] = orig
            numeric = (hi - lo) / (2 * h)
            analytic = grads[name][idx]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            assert abs(analytic - numeric) / denom < 1e-4, \
                f"{name}{idx}: {analytic} vs {numeric}"

    def test_total_objective_gradient(self):
        anchors = small_anchors()
        model = ObjectModel.from_points(
            np.random.default_rng(1).standard_normal((5, 3)) * 0.3)
        netcfg = NetworkConfig(obs_dim=6, n_rot=8, n_vx=5, n_vy=5, n_z=6,
                               feature_dim=8, encoder_hidden=(8,), head_hidden=8)
        net = float64_twin(PoseNetwork(netcfg, seed=3))
        rng = np.random.default_rng(14)
        gt = [random_pose(rng) for _ in range(3)]
        obs = rng.standard_normal((3, 6))
        cfg = objective(anchors)
        sup = supervision(gt, anchors)

        def value():
            out = net.forward(obs)
            return total_objective(out, sup, anchors, model, CAM, cfg).total

        self._check_gradients(value, net, n_probe=25)
