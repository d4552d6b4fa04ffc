"""Nearest-anchor search and sparse score assignment."""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    Pose,
    generate_translation_bins,
    geodesic_distance,
    random_rotations,
)
from poseadapt.labeling import (
    LabelConfig,
    ScoreAssignmentConfig,
    nearest_anchors,
    score_vector,
)
from poseadapt.losses import prepare_supervision

CAM = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


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


class TestScoreVectors:
    def test_rotation_parameterization(self):
        anchors = random_rotations(60, np.random.default_rng(3))
        target = random_rotations(1, np.random.default_rng(4))[0]
        s = score_vector(target, anchors, ScoreAssignmentConfig(0.7, 0.1, 4))
        nz = np.sort(s[s > 0])
        np.testing.assert_allclose(nz, [0.1, 0.1, 0.1, 0.7])
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_translation_parameterization(self):
        bins = generate_translation_bins(0.0, 2.0, 40)
        s = score_vector(0.83, bins, ScoreAssignmentConfig(0.55, 0.075, 7))
        assert np.count_nonzero(s) == 7
        assert s.max() == pytest.approx(0.55)
        assert s.sum() == pytest.approx(0.55 + 6 * 0.075, abs=1e-12)

    def test_one_hot_label(self):
        bins = generate_translation_bins(0.0, 2.0, 10)
        s = score_vector(0.3, bins, ScoreAssignmentConfig(1.0, 0.0, 1))
        assert np.count_nonzero(s) == 1
        assert s[nearest_anchors(0.3, bins, 1)[0]] == 1.0

    def test_scores_sit_at_nearest_indices(self):
        rng = np.random.default_rng(5)
        bins = generate_translation_bins(-200, 200, 20)
        cfg = ScoreAssignmentConfig(0.55, 0.075, 7)
        for _ in range(50):
            x = rng.uniform(-210, 210)
            s = score_vector(x, bins, cfg)
            idx = nearest_anchors(x, bins, 7)
            assert s[idx[0]] == pytest.approx(0.55)
            np.testing.assert_allclose(s[idx[1:]], 0.075)
            mask = np.ones(len(bins), dtype=bool)
            mask[idx] = False
            assert np.all(s[mask] == 0.0)


class TestAssignScores:
    """Labels of all four branches of a pose, as the training loop builds them."""

    def setup_method(self):
        self.anchors = AnchorSet.build(16, 8, 8, 10, seed=0)
        self.cfg = LabelConfig(
            rotation=ScoreAssignmentConfig(0.7, 0.1, 4),
            vx=ScoreAssignmentConfig(0.55, 0.075, 7),
            vy=ScoreAssignmentConfig(0.55, 0.075, 7),
            z=ScoreAssignmentConfig(0.55, 0.075, 7))

    def test_all_branches_sum_to_one(self):
        rng = np.random.default_rng(6)
        for m in random_rotations(10, rng):
            pose = Pose(m, rng.uniform([-0.2, -0.2, 0.5], [0.2, 0.2, 1.8]))
            labels = prepare_supervision(pose, self.anchors, None, CAM,
                                         labels_cfg=self.cfg).labels
            for vec, k in ((labels["rot"], 4), (labels["vx"], 7),
                           (labels["vy"], 7), (labels["z"], 7)):
                assert vec.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.count_nonzero(vec) == k
                assert np.all(vec >= 0)

    def test_deterministic(self):
        pose = Pose(np.eye(3), [0.01, 0.02, 1.0])
        a = prepare_supervision(pose, self.anchors, None, CAM, labels_cfg=self.cfg).labels
        b = prepare_supervision(pose, self.anchors, None, CAM, labels_cfg=self.cfg).labels
        np.testing.assert_array_equal(a["rot"], b["rot"])
        np.testing.assert_array_equal(a["z"], b["z"])
