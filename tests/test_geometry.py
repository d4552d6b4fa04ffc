"""Rotation/pose algebra tests: exact cases plus randomized oracles."""

import numpy as np
import pytest

from poseadapt.errors import DatasetError, InvalidArgumentError
from poseadapt.geometry import (
    AnchorSet,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    apply_pose,
    closest_symmetric_rotation,
    compose_pose,
    cross,
    generate_rotation_anchors,
    generate_translation_bins,
    geodesic_distances_to,
    pose_targets,
    rot6d_to_matrix,
)
from poseadapt.synth import load_dataset, make_dataset, make_domain_config, save_dataset

from helpers import ANCHOR_RANGES, SAMPLE_RANGES, matrix_to_rot6d, random_rotations

CAM = CameraIntrinsics(fx=600.0, fy=600.0)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def geodesic_distance(r1, r2):
    """Angle between two rotations, through the batched distance."""
    return float(geodesic_distances_to(r1[None], r2)[0])


class TestRot6d:
    def test_canonical_basis_gives_identity(self):
        np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_scale_invariance(self):
        np.testing.assert_allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3))
        r = np.random.default_rng(3).standard_normal((20, 6))
        scaled = np.concatenate([r[:, :3] * 7.3, r[:, 3:] * 0.2], axis=1)
        np.testing.assert_allclose(rot6d_to_matrix(r), rot6d_to_matrix(scaled), atol=1e-9)

    def test_random_inputs_give_valid_rotations(self):
        m = rot6d_to_matrix(np.random.default_rng(0).standard_normal((10, 10, 6)))
        assert m.shape == (10, 10, 3, 3)
        np.testing.assert_allclose(np.swapaxes(m, -1, -2) @ m, np.broadcast_to(np.eye(3), m.shape),
                                   atol=1e-9)
        np.testing.assert_allclose(np.linalg.det(m), 1.0, atol=1e-9)

    def test_round_trip_from_matrix(self):
        rots = random_rotations(50, np.random.default_rng(1))
        r6 = np.stack([matrix_to_rot6d(m) for m in rots])
        np.testing.assert_allclose(rot6d_to_matrix(r6), rots, atol=1e-9)

    def test_degenerate_inputs(self):
        """A zero first vector or two parallel vectors map to the identity;
        the other rows of the batch decode as usual."""
        r6 = np.array([[0, 0, 0, 0, 1, 0], [1, 0, 0, 2, 0, 0], [0, 2, 0, 0, 0, 5],
                       [0, 0, 0, 0, 0, 0]], dtype=float)
        m = rot6d_to_matrix(r6)
        np.testing.assert_array_equal(m[[0, 1, 3]], np.broadcast_to(np.eye(3), (3, 3, 3)))
        np.testing.assert_allclose(m[2], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-15)


def test_cross_gives_the_bits_of_np_cross():
    """Stacks, broadcast operands and signed zeros, in float64 and float32."""
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((4, 5, 3)), rng.standard_normal((5, 3))
    a[0, 0] = [0.0, -0.0, 1.0]
    for dtype in (np.float64, np.float32):
        x, y = a.astype(dtype), b.astype(dtype)
        got, want = cross(x, y), np.cross(x, y)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


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
            generate_rotation_anchors(0, seed=0)

    def test_single_anchor_is_exact_identity(self):
        np.testing.assert_array_equal(generate_rotation_anchors(1, seed=3), np.eye(3)[None])

    def test_one_anchor_set(self):
        """The direct-regression baseline's set: one anchor per branch at
        the identity and the range midpoints."""
        a = AnchorSet.build(1, 1, 1, 1, (-100.0, 200.0), (-200.0, 200.0), (0.0, 2.0), seed=0)
        np.testing.assert_array_equal(a.rotations, np.eye(3)[None])
        assert (a.bins_vx.tolist(), a.bins_vy.tolist(), a.bins_z.tolist()) == \
            ([50.0], [0.0], [1.0])

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


def compose(picks, residuals, anchors):
    """One pose through the batched ``compose_pose``: rotation, translation."""
    rot, t = compose_pose([[i] for i in picks],
                          [np.array([r], dtype=float) for r in residuals], anchors, CAM)
    return rot[0], t[0]


class TestComposePose:
    def setup_method(self):
        self.anchors = AnchorSet.build(8, 5, 5, 10, *ANCHOR_RANGES, seed=0)

    def test_zero_residuals_reproduce_anchor(self):
        a = self.anchors
        picks = ([3, 0, 7], [1, 4, 0], [2, 2, 3], [4, 9, 0])
        rot, t = compose_pose(picks, (np.tile([1.0, 0, 0, 0, 1, 0], (3, 1)), np.zeros(3),
                                      np.zeros(3), np.zeros(3)), a, CAM)
        assert rot.shape == (3, 3, 3) and t.shape == (3, 3)
        i_rot, i_vx, i_vy, i_z = (np.array(i) for i in picks)
        np.testing.assert_allclose(rot, a.rotations[i_rot], atol=1e-12)
        cz = a.bins_z[i_z]
        np.testing.assert_allclose(
            t, np.stack([a.bins_vx[i_vx] * cz / CAM.fx, a.bins_vy[i_vy] * cz / CAM.fy, cz], 1),
            atol=1e-12)

    def test_known_arithmetic(self):
        anchors = AnchorSet(np.eye(3)[None], np.array([10.0]), np.array([0.0]),
                            np.array([1.025]), ANCHOR_RANGES[2])
        _, t = compose((0, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 2.0, 0.0, -0.01), anchors)
        assert t[2] == pytest.approx(1.015)
        # x uses the composed z: (10 + 2) * z / fx
        assert t[0] == pytest.approx(12 * 1.015 / 600.0)

    def test_vx_example(self):
        anchors = AnchorSet(np.eye(3)[None], np.array([10.0]), np.array([0.0]),
                            np.array([1.0]), ANCHOR_RANGES[2])
        _, t = compose((0, 0, 0, 0), ([1, 0, 0, 0, 1, 0], 2.0, 0.0, 0.0), anchors)
        assert t[0] == pytest.approx(0.02)

    def test_nonpositive_depth(self):
        """A depth residual that crosses zero falls back to the bin center;
        the other rows keep their residuals."""
        z = self.anchors.bins_z
        _, t = compose_pose(([0, 0], [0, 0], [0, 0], [2, 2]),
                            (np.tile([1.0, 0, 0, 0, 1, 0], (2, 1)), np.zeros(2), np.zeros(2),
                             np.array([-5.0, 0.01])), self.anchors, CAM)
        assert t[0, 2] == z[2] and t[1, 2] == z[2] + 0.01

    def test_degenerate_rotation_gives_anchor_rotation(self):
        rot, _ = compose((5, 0, 0, 0), ([0, 0, 0, 1, 0, 0], 0.0, 0.0, 0.0), self.anchors)
        np.testing.assert_array_equal(rot, self.anchors.rotations[5])

    def test_bad_index(self):
        for picks in ((99, 0, 0, 0), (0, 0, 0, -1)):
            with pytest.raises(InvalidArgumentError):
                compose(picks, ([1, 0, 0, 0, 1, 0], 0, 0, 0), self.anchors)


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

    def test_stack_matches_each_pose(self):
        rng = np.random.default_rng(4)
        poses = [Pose(r, rng.standard_normal(3)) for r in random_rotations(5, rng)]
        pts = rng.standard_normal((7, 3))
        got = apply_pose(Pose.stack(poses), pts)
        assert got.shape == (5, 7, 3)
        for p, g in zip(poses, got):
            np.testing.assert_array_equal(g, apply_pose(p, pts))


class TestPose:
    def test_stack_and_depth(self):
        poses = [Pose(np.eye(3), [0.0, 0.0, z]) for z in (0.5, 1.5)]
        stacked = Pose.stack(poses)
        assert stacked.rotation.shape == (2, 3, 3) and stacked.translation.shape == (2, 3)
        np.testing.assert_array_equal(stacked.z, [0.5, 1.5])
        assert poses[1].z == 1.5 and np.shape(poses[1].z) == ()

    def test_rows_length_and_empty_stack(self):
        rng = np.random.default_rng(5)
        stacked = Pose(random_rotations(4, rng), rng.standard_normal((4, 3)))
        assert len(stacked) == 4
        rows = stacked[np.array([3, 1])]
        assert len(rows) == 2
        np.testing.assert_array_equal(rows.rotation, stacked.rotation[[3, 1]])
        np.testing.assert_array_equal(rows.translation, stacked.translation[[3, 1]])
        one = stacked[2]
        assert one.rotation.shape == (3, 3) and one.z == stacked.z[2]
        # a stack iterates row by row
        assert [p.z for p in stacked] == list(stacked.z)
        empty = Pose.stack([])
        assert len(empty) == 0
        assert empty.rotation.shape == (0, 3, 3) and empty.translation.shape == (0, 3)
        assert len(stacked[np.array([], dtype=int)]) == 0
        with pytest.raises(TypeError):
            len(one)

    def test_stack_joins_poses_and_stacks_in_order(self):
        rng = np.random.default_rng(6)
        a = Pose(random_rotations(3, rng), rng.standard_normal((3, 3)))
        b = Pose(random_rotations(1, rng)[0], rng.standard_normal(3))
        joined = Pose.stack([a, b, Pose.stack([]), a[1:]])
        assert len(joined) == 6
        np.testing.assert_array_equal(joined.rotation,
                                      np.concatenate([a.rotation, [b.rotation], a.rotation[1:]]))
        np.testing.assert_array_equal(joined.z, np.concatenate([a.z, [b.z], a.z[1:]]))

    @pytest.mark.parametrize("rotation, translation", [
        (np.eye(3), np.zeros(4)),
        (np.eye(3), np.zeros(2)),
        (np.eye(3)[:2], np.zeros(3)),
        (np.zeros(9), np.zeros(3)),
        (np.zeros((2, 3, 3)), np.zeros(3)),
        (np.zeros((2, 3, 3)), np.zeros((3, 3))),
    ])
    def test_bad_shapes_raise(self, rotation, translation):
        with pytest.raises(InvalidArgumentError):
            Pose(rotation, translation)


class TestClosestSymmetricRotation:
    def setup_method(self):
        self.sym = rot_z(np.pi)
        self.model = ObjectModel.from_points(
            np.random.default_rng(0).standard_normal((8, 3)),
            symmetries=(np.eye(3), self.sym))

    def test_singleton_returns_gt(self):
        model = ObjectModel.from_points(np.random.default_rng(0).standard_normal((8, 3)))
        gt = random_rotations(4, np.random.default_rng(1))
        pred = random_rotations(4, np.random.default_rng(2))
        np.testing.assert_array_equal(closest_symmetric_rotation(pred, gt, model), gt)

    def test_exact_symmetry_hit(self):
        gt = random_rotations(4, np.random.default_rng(3))
        pred = gt @ self.sym
        best = closest_symmetric_rotation(pred, gt, self.model)
        for b in range(4):
            assert geodesic_distance(best[b], pred[b]) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        gt, pred = random_rotations(50, rng), random_rotations(50, rng)
        best = closest_symmetric_rotation(pred, gt, self.model)
        for b in range(50):
            # independent exhaustive minimization
            cands = [gt[b] @ s for s in self.model.symmetries]
            dists = [geodesic_distance(pred[b], c) for c in cands]
            np.testing.assert_allclose(best[b], cands[int(np.argmin(dists))])

    def test_tie_breaks_toward_first_symmetry(self):
        """A prediction equidistant from both variants keeps ``gt @ I``."""
        gt = random_rotations(3, np.random.default_rng(5))
        pred = gt @ rot_z(np.pi / 2)
        np.testing.assert_array_equal(closest_symmetric_rotation(pred, gt, self.model), gt)


class TestObjectModel:
    def test_diameter_exact(self):
        pts = np.array([[0, 0, 0], [3, 4, 0], [1, 1, 1]], dtype=float)
        assert ObjectModel.from_points(pts).diameter == pytest.approx(5.0)

    def test_identity_always_in_symmetries(self):
        model = ObjectModel.from_points(np.eye(3), symmetries=(rot_z(np.pi),))
        assert any(np.allclose(s, np.eye(3)) for s in model.symmetries)

    @pytest.mark.parametrize("field, value, match", [
        ("points", np.zeros((4, 2)), "not finite, nonempty"),
        ("points", np.zeros(3), "not finite, nonempty"),
        ("points", [[0.0, 0.0, np.nan], [1.0, 0.0, 0.0]], "not finite, nonempty"),
        ("diameter", "big", "diameter 'big'"),
        ("diameter", -1.0, "diameter -1.0"),
        ("diameter", 0, "diameter 0 "),
        ("diameter", np.inf, "diameter inf"),
        ("diameter", np.nan, "diameter nan"),
        ("diameter", True, "diameter True"),
        ("symmetries", (2.0 * np.eye(3),), "symmetry"),
        ("symmetries", (np.diag([1.0, 1.0, -1.0]),), "symmetry"),        # a reflection
        ("symmetries", (np.eye(3) + 2e-9,), "symmetry"),
        ("symmetries", (np.full((3, 3), np.nan),), "symmetry"),
        ("symmetries", (np.eye(2),), "symmetry"),
    ], ids=["not-n-by-3", "one-dimensional", "nan-point", "diameter-string",
            "negative-diameter", "zero-diameter", "infinite-diameter", "nan-diameter",
            "bool-diameter", "scaled-symmetry", "reflection", "symmetry-off-by-2e-9",
            "nan-symmetry", "2-by-2-symmetry"])
    def test_constructor_refuses_what_no_model_has(self, field, value, match):
        fields = {"points": np.eye(3), "diameter": 1.5, "symmetries": (np.eye(3),)}
        with pytest.raises(InvalidArgumentError, match=match):
            ObjectModel(**dict(fields, **{field: value}))

    def test_constructor_keeps_rotations_within_the_load_tolerance(self):
        """A symmetry off by 1e-10, as a dataset file may store it, is a
        rotation; an integer diameter is a number."""
        model = ObjectModel(np.eye(3), 2, (np.eye(3), rot_z(np.pi) + 1e-10))
        assert model.is_symmetric and model.diameter == 2

    # object models are stored inside dataset files

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = ObjectModel.from_points(rng.standard_normal((12, 3)),
                                        symmetries=(np.eye(3), rot_z(np.pi)))
        dc = make_domain_config(seed=0)
        path = tmp_path / "data.txt"
        save_dataset(path, make_dataset(1, 1, [model], CAM, dc, dc, seed=0,
                                        sample_ranges=SAMPLE_RANGES))
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
