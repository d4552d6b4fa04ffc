"""Nearest-anchor search and sparse score assignment."""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    Pose,
    generate_translation_bins,
    pose_targets,
)
from poseadapt.labeling import (
    ScoreAssignmentConfig,
    ScoreConfig,
    nearest_anchors,
    score_vector,
)
from poseadapt.losses import ObjectiveConfig, build_target_graph, prepare_batch_supervision

from helpers import ANCHOR_RANGES, random_rotations

CAM = CameraIntrinsics(fx=600.0, fy=600.0)


def geodesic_distance(r1, r2):
    """Angle between two rotations, from the trace of r1 r2^T."""
    return float(np.arccos(np.clip((np.trace(r1 @ r2.T) - 1.0) / 2.0, -1.0, 1.0)))


class TestNearestAnchors:
    def test_scalar_example(self):
        bins = generate_translation_bins(0.0, 2.0, 40)
        # 0.26 sits between centers 0.225 (idx 4) and 0.275 (idx 5); 0.275 is nearer
        assert nearest_anchors(0.26, bins, 1)[0] == 5

    def test_exact_anchor(self):
        bins = generate_translation_bins(0.0, 2.0, 40)
        assert nearest_anchors(bins[17], bins, 1)[0] == 17

    def test_scalar_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        bins = generate_translation_bins(-1.0, 3.0, 23)
        for _ in range(200):
            x = rng.uniform(-1.2, 3.2)
            got = nearest_anchors(x, bins, 5)
            # oracle: full scan + stable sort on (distance, index)
            order = sorted(range(len(bins)), key=lambda i: (abs(bins[i] - x), i))
            np.testing.assert_array_equal(got, order[:5])

    def test_rotation_matches_brute_force(self):
        anchors = random_rotations(60, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for r in random_rotations(30, rng):
            got = nearest_anchors(r, anchors, 4)
            dists = [geodesic_distance(a, r) for a in anchors]
            order = sorted(range(60), key=lambda i: (dists[i], i))
            np.testing.assert_array_equal(got, order[:4])

    def test_batched_rows_match_single_targets(self):
        rng = np.random.default_rng(3)
        anchors = random_rotations(20, rng)
        rots = random_rotations(12, rng).reshape(3, 4, 3, 3)
        got = nearest_anchors(rots, anchors, 5)
        assert got.shape == (3, 4, 5)
        bins = generate_translation_bins(0.0, 2.0, 9)
        xs = rng.uniform(0.0, 2.0, (2, 6))
        got_x = nearest_anchors(xs, bins, 3)
        for i in np.ndindex(3, 4):
            np.testing.assert_array_equal(got[i], nearest_anchors(rots[i], anchors, 5))
        for i in np.ndindex(2, 6):
            np.testing.assert_array_equal(got_x[i], nearest_anchors(xs[i], bins, 3))

    def test_tie_breaks_to_lower_index(self):
        bins = np.array([0.0, 2.0])
        assert nearest_anchors(1.0, bins, 2)[0] == 0

    def test_k_too_large(self):
        with pytest.raises(InvalidArgumentError):
            nearest_anchors(0.5, np.array([0.0, 1.0]), 3)


class TestScoreAssignmentConfig:
    def test_paper_defaults_are_valid(self):
        ScoreAssignmentConfig(0.7, 0.1, 4)
        ScoreAssignmentConfig(0.55, 0.075, 7)

    def test_sum_constraint_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ScoreAssignmentConfig(0.7, 0.2, 4)

    def test_ordering_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ScoreAssignmentConfig(0.1, 0.3, 4)

    def test_one_hot(self):
        cfg = ScoreAssignmentConfig(1.0, 0.0, 1)
        assert cfg.k == 1


def scores(target, anchors, cfg):
    """Sparse scores of a target, built from its nearest-anchor search."""
    return score_vector(nearest_anchors(target, anchors, cfg.k), len(anchors), cfg)


class TestScoreVectors:
    def test_rotation_parameterization(self):
        anchors = random_rotations(60, np.random.default_rng(3))
        target = random_rotations(1, np.random.default_rng(4))[0]
        s = scores(target, anchors, ScoreAssignmentConfig(0.7, 0.1, 4))
        nz = np.sort(s[s > 0])
        np.testing.assert_allclose(nz, [0.1, 0.1, 0.1, 0.7])
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_translation_parameterization(self):
        bins = generate_translation_bins(0.0, 2.0, 40)
        s = scores(0.83, bins, ScoreAssignmentConfig(0.55, 0.075, 7))
        assert np.count_nonzero(s) == 7
        assert s.max() == pytest.approx(0.55)
        assert s.sum() == pytest.approx(0.55 + 6 * 0.075, abs=1e-12)

    def test_one_hot_label(self):
        bins = generate_translation_bins(0.0, 2.0, 10)
        s = scores(0.3, bins, ScoreAssignmentConfig(1.0, 0.0, 1))
        assert np.count_nonzero(s) == 1
        assert s[nearest_anchors(0.3, bins, 1)[0]] == 1.0

    def test_scores_sit_at_nearest_indices(self):
        rng = np.random.default_rng(5)
        bins = generate_translation_bins(-200, 200, 20)
        cfg = ScoreAssignmentConfig(0.55, 0.075, 7)
        for _ in range(50):
            x = rng.uniform(-210, 210)
            s = scores(x, bins, cfg)
            idx = nearest_anchors(x, bins, 7)
            assert s[idx[0]] == pytest.approx(0.55)
            np.testing.assert_allclose(s[idx[1:]], 0.075)
            mask = np.ones(len(bins), dtype=bool)
            mask[idx] = False
            assert np.all(s[mask] == 0.0)

    def test_builds_a_stack_from_index_rows(self):
        """theta1 at each row's first index, theta2 at the others; the row
        length must be the config's k."""
        cfg = ScoreAssignmentConfig(0.6, 0.2, 3)
        idx = np.array([[2, 0, 1], [4, 3, 2]])
        np.testing.assert_array_equal(score_vector(idx, 5, cfg),
                                      [[0.2, 0.2, 0.6, 0, 0], [0, 0, 0.2, 0.2, 0.6]])
        with pytest.raises(InvalidArgumentError, match="k=3"):
            score_vector(idx[:, :2], 5, cfg)


class TestAssignScores:
    """Labels of all four branches of a pose stack, as the training loop
    builds them."""

    def setup_method(self):
        self.anchors = AnchorSet.build(16, 8, 8, 10, *ANCHOR_RANGES, seed=0)
        self.cfg = ObjectiveConfig(
            labels=ScoreConfig(rotation=(0.7, 0.1, 4), translation=(0.55, 0.075, 7)),
            use_cls=True, ctc_weight=1.0,
            target_graph=build_target_graph(self.anchors.bins_z, *self.anchors.z_range))

    def test_all_branches_sum_to_one(self):
        rng = np.random.default_rng(6)
        poses = Pose(random_rotations(10, rng), rng.uniform([-0.2, -0.2, 0.5], [0.2, 0.2, 1.8],
                                                            (10, 3)))
        labels = prepare_batch_supervision(poses, self.anchors, CAM, self.cfg).labels
        for name, k in (("rot", 4), ("vx", 7), ("vy", 7), ("z", 7)):
            assert labels[name].shape[0] == 10
            np.testing.assert_allclose(labels[name].sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(np.count_nonzero(labels[name], axis=1), k)
            assert np.all(labels[name] >= 0)

    def test_rows_match_single_target_labels(self):
        rng = np.random.default_rng(7)
        poses = Pose(random_rotations(6, rng), rng.uniform([-0.2, -0.2, 0.5], [0.2, 0.2, 1.8],
                                                           (6, 3)))
        sup = prepare_batch_supervision(poses, self.anchors, CAM, self.cfg)
        for b in range(len(poses)):
            rot, vx, vy, z = pose_targets(poses[b], CAM)
            for name, target, bins, cfg in (
                    ("rot", rot, self.anchors.rotations, self.cfg.labels.branch("rot")),
                    ("vx", vx, self.anchors.bins_vx, self.cfg.labels.branch("vx")),
                    ("vy", vy, self.anchors.bins_vy, self.cfg.labels.branch("vy")),
                    ("z", z, self.anchors.bins_z, self.cfg.labels.branch("z"))):
                np.testing.assert_array_equal(sup.labels[name][b],
                                              scores(target, bins, cfg))
                if name != "rot":
                    np.testing.assert_array_equal(sup.nearest[name][b],
                                                  nearest_anchors(target, bins, cfg.k))

    def test_deterministic(self):
        poses = Pose(np.eye(3)[None], [[0.01, 0.02, 1.0]])
        a = prepare_batch_supervision(poses, self.anchors, CAM, self.cfg).labels
        b = prepare_batch_supervision(poses, self.anchors, CAM, self.cfg).labels
        np.testing.assert_array_equal(a["rot"], b["rot"])
        np.testing.assert_array_equal(a["z"], b["z"])
