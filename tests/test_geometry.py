"""Rotation/pose algebra tests: exact cases plus randomized oracles."""

import numpy as np
import pytest

from poseadapt.errors import (
    DatasetError,
    DegenerateRotationError,
    InvalidArgumentError,
    NonPositiveDepthError,
)
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
    closest_symmetric_rotation,
    compose_pose,
    generate_rotation_anchors,
    generate_translation_bins,
    geodesic_distance,
    matrix_to_rot6d,
    pose_targets,
    random_rotations,
    rot6d_to_matrix,
)
from poseadapt.synth import load_dataset, make_dataset, make_domain_config, save_dataset

CAM = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRot6d:
    def test_canonical_basis_gives_identity(self):
        np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_scale_invariance(self):
        np.testing.assert_allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3))
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rng.standard_normal(6)
            scaled = np.concatenate([r[:3] * 7.3, r[3:] * 0.2])
            np.testing.assert_allclose(rot6d_to_matrix(r), rot6d_to_matrix(scaled),
                                       atol=1e-9)

    def test_random_inputs_give_valid_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rot6d_to_matrix(rng.standard_normal(6))
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(m) - 1.0) < 1e-9

    def test_round_trip_from_matrix(self):
        rng = np.random.default_rng(1)
        for m in random_rotations(50, rng):
            np.testing.assert_allclose(rot6d_to_matrix(matrix_to_rot6d(m)), m, atol=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRotationError):
            rot6d_to_matrix([0, 0, 0, 0, 1, 0])
        with pytest.raises(DegenerateRotationError):
            rot6d_to_matrix([1, 0, 0, 2, 0, 0])  # parallel


class TestGeodesicDistance:
    def test_identity(self):
        assert geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert geodesic_distance(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(np.pi / 2)

    def test_half_turn(self):
        assert geodesic_distance(np.eye(3), rot_z(np.pi)) == pytest.approx(np.pi)

    def test_symmetric_and_in_range(self):
        rng = np.random.default_rng(2)
        rots = random_rotations(40, rng)
        for a, b in zip(rots[:20], rots[20:]):
            d1, d2 = geodesic_distance(a, b), geodesic_distance(b, a)
            assert d1 == pytest.approx(d2)
            assert 0.0 <= d1 <= np.pi

    def test_clamp_protects_against_roundoff(self):
        m = rot6d_to_matrix([1, 1e-8, 0, 0, 1, 1e-8])
        assert np.isfinite(geodesic_distance(m, m))


class TestRotationAnchors:
    def test_deterministic(self):
        a = generate_rotation_anchors(60, seed=5)
        b = generate_rotation_anchors(60, seed=5)
        assert a.shape == (60, 3, 3)
        np.testing.assert_array_equal(a, b)

    def test_identity_first(self):
        np.testing.assert_allclose(generate_rotation_anchors(2, seed=9)[0], np.eye(3))

    def test_rejects_small_n(self):
        with pytest.raises(InvalidArgumentError):
            generate_rotation_anchors(1, seed=0)

    def test_pairwise_distinct(self):
        anchors = generate_rotation_anchors(30, seed=4)
        dmin = min(geodesic_distance(anchors[i], anchors[j])
                   for i in range(30) for j in range(i + 1, 30))
        assert dmin > 0.1

    def test_coverage_beats_random_sets(self):
        # Monte-Carlo oracle: farthest-point anchors should cover SO(3)
        # better than same-size uniform random sets in >= 95% of trials.
        probes = random_rotations(10_000, np.random.default_rng(123))
        traces = np.einsum("nij,mij->nm", probes, probes[:1])  # warm-up shape check
        wins = 0
        trials = 20
        for t in range(trials):
            fps = generate_rotation_anchors(60, seed=200 + t)
            rand = random_rotations(60, np.random.default_rng(500 + t))

            def max_nearest(anchor_set):
                tr = np.einsum("nij,mij->nm", probes, anchor_set)
                d = np.arccos(np.clip((tr - 1) / 2, -1, 1))
                return d.min(axis=1).max()

            if max_nearest(fps) < max_nearest(rand):
                wins += 1
        assert wins >= 19


class TestTranslationBins:
    def test_z_default_range(self):
        bins = generate_translation_bins(0.0, 2.0, 40)
        assert bins[0] == pytest.approx(0.025)
        np.testing.assert_allclose(np.diff(bins), 0.05)

    def test_pixel_range(self):
        bins = generate_translation_bins(-200, 200, 20)
        assert bins[0] == pytest.approx(-190.0)
        np.testing.assert_allclose(np.diff(bins), 20.0)

    def test_single_bin_is_midpoint(self):
        np.testing.assert_allclose(generate_translation_bins(0, 1, 1), [0.5])

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            generate_translation_bins(1.0, 0.0, 4)
        with pytest.raises(InvalidArgumentError):
            generate_translation_bins(0.0, 1.0, 0)


class TestComposePose:
    def setup_method(self):
        self.anchors = AnchorSet.build(8, 5, 5, 10, seed=0)

    def test_zero_residuals_reproduce_anchor(self):
        k = 3
        cx, cy, cz = (self.anchors.bins_vx[1], self.anchors.bins_vy[2],
                      self.anchors.bins_z[4])
        p = compose_pose((k, 1, 2, 4), ([1, 0, 0, 0, 1, 0], 0.0, 0.0, 0.0),
                         self.anchors, CAM)
        np.testing.assert_allclose(p.rotation, self.anchors.rotations[k], atol=1e-12)
        np.testing.assert_allclose(
            p.translation, [cx * cz / CAM.fx, cy * cz / CAM.fy, cz], atol=1e-12)

    def test_known_arithmetic(self):
        anchors = AnchorSet(rotations=np.eye(3)[None],
                            bins_vx=np.array([10.0]), bins_vy=np.array([0.0]),
                            bins_z=np.array([1.025]))
        p = compose_pose((0, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 2.0, 0.0, -0.01),
                         anchors, CAM)
        assert p.z == pytest.approx(1.015)
        # x uses the composed z: (10 + 2) * z / fx
        assert p.translation[0] == pytest.approx(12 * 1.015 / 600.0)

    def test_vx_example(self):
        anchors = AnchorSet(rotations=np.eye(3)[None],
                            bins_vx=np.array([10.0]), bins_vy=np.array([0.0]),
                            bins_z=np.array([1.0]))
        p = compose_pose((0, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 2.0, 0.0, 0.0),
                         anchors, CAM)
        assert p.translation[0] == pytest.approx(0.02)

    def test_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepthError):
            compose_pose((0, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 0.0, 0.0, -5.0),
                         self.anchors, CAM)

    def test_bad_index(self):
        with pytest.raises(InvalidArgumentError):
            compose_pose((99, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 0, 0, 0),
                         self.anchors, CAM)


class TestApplyPose:
    def test_identity(self):
        pts = np.random.default_rng(1).standard_normal((10, 3))
        np.testing.assert_array_equal(apply_pose(Pose(np.eye(3), np.zeros(3)), pts), pts)

    def test_pure_translation(self):
        pts = np.random.default_rng(2).standard_normal((10, 3))
        d = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(apply_pose(Pose(np.eye(3), d), pts), pts + d)

    def test_matches_per_point_arithmetic(self):
        rng = np.random.default_rng(3)
        rot = random_rotations(1, rng)[0]
        t = rng.standard_normal(3)
        pts = rng.standard_normal((3, 3))
        got = apply_pose(Pose(rot, t), pts)
        for i in range(3):
            np.testing.assert_allclose(got[i], rot @ pts[i] + t, atol=1e-12)


class TestClosestSymmetricRotation:
    def test_singleton_returns_gt(self):
        model = ObjectModel.from_points(np.random.default_rng(0).standard_normal((8, 3)))
        gt = random_rotations(1, np.random.default_rng(1))[0]
        pred = random_rotations(1, np.random.default_rng(2))[0]
        np.testing.assert_array_equal(closest_symmetric_rotation(pred, gt, model), gt)

    def test_exact_symmetry_hit(self):
        sym = rot_z(np.pi)
        model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((8, 3)),
            symmetries=(np.eye(3), sym))
        gt = random_rotations(1, np.random.default_rng(3))[0]
        pred = gt @ sym
        best = closest_symmetric_rotation(pred, gt, model)
        assert geodesic_distance(best, pred) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force(self):
        sym = rot_z(np.pi)
        model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((8, 3)),
            symmetries=(np.eye(3), sym))
        rng = np.random.default_rng(4)
        for _ in range(50):
            gt = random_rotations(1, rng)[0]
            pred = random_rotations(1, rng)[0]
            best = closest_symmetric_rotation(pred, gt, model)
            # independent exhaustive minimization
            cands = [gt @ s for s in model.symmetries]
            dists = [geodesic_distance(pred, c) for c in cands]
            np.testing.assert_allclose(best, cands[int(np.argmin(dists))])


class TestObjectModel:
    def test_diameter_exact(self):
        pts = np.array([[0, 0, 0], [3, 4, 0], [1, 1, 1]], dtype=float)
        assert ObjectModel.from_points(pts).diameter == pytest.approx(5.0)

    def test_identity_always_in_symmetries(self):
        model = ObjectModel.from_points(np.eye(3), symmetries=(rot_z(np.pi),))
        assert any(np.allclose(s, np.eye(3)) for s in model.symmetries)

    # object models are stored inside dataset files

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = ObjectModel.from_points(rng.standard_normal((12, 3)),
                                        symmetries=(np.eye(3), rot_z(np.pi)))
        dc = make_domain_config(seed=0)
        path = tmp_path / "data.txt"
        save_dataset(path, make_dataset(1, 1, [model], CAM, dc, dc, seed=0))
        back = load_dataset(path).objects[0]
        np.testing.assert_array_equal(back.points, model.points)
        assert back.diameter == model.diameter
        assert len(back.symmetries) == 2
        np.testing.assert_array_equal(back.symmetries[1], model.symmetries[1])

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestPoseTargets:
    def test_inverts_composition(self):
        pose = Pose(rot_z(0.2), [0.05, -0.02, 1.25])
        rot, vx, vy, z = pose_targets(pose, CAM)
        assert z == pytest.approx(1.25)
        assert vx == pytest.approx(0.05 * CAM.fx / 1.25)
        assert vy == pytest.approx(-0.02 * CAM.fy / 1.25)
