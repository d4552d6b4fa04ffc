"""Benchmark generator tests: determinism, domain statistics, guards."""

import json

import numpy as np
import pytest

from poseadapt.errors import DatasetError, GroundTruthAccessError, InvalidArgumentError
from poseadapt.geometry import CameraIntrinsics, Pose, generate_rotation_anchors
from poseadapt.labeling import anchor_distances
from poseadapt import synth
from poseadapt.metrics import evaluate_pose
from poseadapt.synth import (
    OBS_DIM,
    SCALAR_RANGE,
    SIZE_CHANNEL,
    ScalarShiftConfig,
    evaluation_access,
    load_dataset,
    make_dataset,
    make_domain_config,
    make_object,
    make_scalar_task,
    raw_observation,
    save_dataset,
    synthesize,
)

from helpers import random_rotations, split

CAM = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def reference_box_points(seed, n_points):
    """The box cloud built one surface point at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, synth._kind_tag("box")]))
    corners = np.array([[sx, sy, sz] for sx in (-0.5, 0.5)
                        for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)])
    extra = n_points - len(corners)
    pts = [corners]
    if extra > 0:
        face = rng.integers(0, 6, extra)
        uv = rng.uniform(-0.5, 0.5, (extra, 2))
        surf = np.empty((extra, 3))
        for i in range(extra):
            coords = [0.0, 0.0, 0.0]
            coords[face[i] // 2] = -0.5 if face[i] % 2 == 0 else 0.5
            others = [j for j in range(3) if j != face[i] // 2]
            coords[others[0]], coords[others[1]] = uv[i]
            surf[i] = coords
        pts.append(surf)
    return np.vstack(pts)[:n_points]


class TestMakeObject:
    @pytest.mark.parametrize("seed, n_points", [(0, 4), (1, 8), (2, 9), (7, 128), (8, 301)])
    def test_box_matches_per_point_reference(self, seed, n_points):
        got = make_object("box", seed=seed, n_points=n_points).points
        assert got.tobytes() == reference_box_points(seed, n_points).tobytes()

    def test_box_diameter_is_cube_diagonal(self):
        obj = make_object("box", seed=0, n_points=64)
        assert obj.diameter == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert len(obj.points) == 64

    def test_deterministic(self):
        a = make_object("blob", seed=3, n_points=50)
        b = make_object("blob", seed=3, n_points=50)
        np.testing.assert_array_equal(a.points, b.points)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            make_object("torus", seed=0, n_points=32)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            make_object("box", seed=0, n_points=3)

    def test_cylinder_symmetry_in_metrics(self):
        # under the 2-fold symmetry rotation ADD-S vanishes while ADD does not
        obj = make_object("cylinder", seed=1, n_points=96)
        assert obj.is_symmetric
        gt = Pose(np.eye(3), [0.0, 0.0, 1.0])
        flipped = Pose(obj.symmetries[1], [0.0, 0.0, 1.0])
        rec = evaluate_pose(flipped, gt, obj)
        assert rec.add_s == pytest.approx(0.0, abs=1e-9)
        assert rec.add > 0.1
        assert rec.hit

    def test_blob_is_asymmetric(self):
        obj = make_object("blob", seed=2, n_points=64)
        assert not obj.is_symmetric


class TestSynthesize:
    def setup_method(self):
        self.obj = make_object("box", seed=0, n_points=64)

    def test_deterministic_for_same_pose_and_config(self):
        dc = make_domain_config(0.0, 0.0, 0.0, seed=5)
        pose = Pose(rot_z(0.4), [0.05, 0.0, 1.2])
        a = synthesize(pose, self.obj, CAM, dc)
        b = synthesize(pose, self.obj, CAM, dc)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (OBS_DIM,)

    def test_noise_is_pose_keyed(self):
        dc = make_domain_config(0.0, 0.1, 0.0, seed=5)
        p1 = Pose(np.eye(3), [0.0, 0.0, 1.0])
        p2 = Pose(np.eye(3), [0.0, 0.0, 1.1])
        assert not np.array_equal(synthesize(p1, self.obj, CAM, dc),
                                  synthesize(p2, self.obj, CAM, dc))
        np.testing.assert_array_equal(synthesize(p1, self.obj, CAM, dc),
                                      synthesize(p1, self.obj, CAM, dc))

    def test_depth_moves_size_channel(self):
        dc = make_domain_config(0.0, 0.0, 0.0, seed=0)
        near = Pose(np.eye(3), [0.0, 0.0, 0.8])
        far = Pose(np.eye(3), [0.0, 0.0, 1.6])
        raw_near = raw_observation(near, self.obj, CAM)
        raw_far = raw_observation(far, self.obj, CAM)
        assert raw_near[SIZE_CHANNEL] > raw_far[SIZE_CHANNEL]
        assert not np.array_equal(synthesize(near, self.obj, CAM, dc),
                                  synthesize(far, self.obj, CAM, dc))

    def test_mean_displacement_matches_offset(self):
        # Monte-Carlo oracle: averaged over poses, target minus source
        # observations equal the configured nuisance offset within 3 sigma.
        rng = np.random.default_rng(7)
        noise = 0.05
        src = make_domain_config(0.0, noise, 0.0, seed=1)
        tgt = make_domain_config(0.9, noise, 0.0, seed=2)
        n = 200
        diffs = []
        for m in random_rotations(n, rng):
            pose = Pose(m, [0.0, 0.0, rng.uniform(0.6, 1.5)])
            diffs.append(synthesize(pose, self.obj, CAM, tgt)
                         - synthesize(pose, self.obj, CAM, src))
        mean_diff = np.mean(diffs, axis=0)
        # two independent noise draws: std of the mean is noise*sqrt(2/n)
        bound = 3.0 * noise * np.sqrt(2.0 / n)
        assert np.all(np.abs(mean_diff - (tgt.offset - src.offset)) < bound)

    def test_dropout_zeroes_coordinates(self):
        dc = make_domain_config(0.0, 0.0, 0.9, seed=3)
        pose = Pose(np.eye(3), [0.0, 0.0, 1.0])
        obs = synthesize(pose, self.obj, CAM, dc)
        assert np.count_nonzero(obs == 0.0) > OBS_DIM // 2

    def test_nonpositive_depth_rejected(self):
        dc = make_domain_config(0.0, 0.0, 0.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            synthesize(Pose(np.eye(3), [0, 0, -1.0]), self.obj, CAM, dc)


class TestDomainConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_domain_config(noise_scale=-0.1)
        with pytest.raises(InvalidArgumentError):
            make_domain_config(dropout_prob=1.5)


class TestMakeDataset:
    def setup_method(self):
        self.objects = [make_object("box", seed=0, n_points=48),
                        make_object("cylinder", seed=1, n_points=48)]
        self.src = make_domain_config(0.0, 0.02, 0.0, seed=1)
        self.tgt = make_domain_config(0.5, 0.05, 0.0, seed=2)

    def test_deterministic(self):
        a = make_dataset(40, 20, self.objects, CAM, self.src, self.tgt, seed=9)
        b = make_dataset(40, 20, self.objects, CAM, self.src, self.tgt, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.id == sb.id
            np.testing.assert_array_equal(sa.observation, sb.observation)

    def test_depth_range_contract(self):
        ds = make_dataset(60, 30, self.objects, CAM, self.src, self.tgt, seed=4)
        with evaluation_access():
            for s in ds.samples:
                assert 0.4 <= s.gt_pose.z <= 1.6

    def test_objects_balanced_round_robin(self):
        ds = make_dataset(40, 20, self.objects, CAM, self.src, self.tgt, seed=5)
        counts = [len(ds.by_object(i, "source")) for i in range(2)]
        assert counts == [20, 20]

    def test_rotation_uniformity_two_sample(self):
        # distances-to-nearest-anchor of dataset rotations should be
        # indistinguishable from those of fresh uniform rotations
        from scipy import stats
        anchors = generate_rotation_anchors(60, seed=0)
        ds = make_dataset(400, 1, self.objects, CAM, self.src, self.tgt, seed=6)
        with evaluation_access():
            d_data = [anchor_distances(s.gt_pose.rotation, anchors).min()
                      for s in split(ds, "source")]
        fresh = random_rotations(400, np.random.default_rng(77))
        d_fresh = [anchor_distances(m, anchors).min() for m in fresh]
        assert stats.ks_2samp(d_data, d_fresh).pvalue > 0.01

    def test_target_gt_guarded(self):
        ds = make_dataset(4, 4, self.objects, CAM, self.src, self.tgt, seed=7)
        target = split(ds, "target")[0]
        with pytest.raises(GroundTruthAccessError):
            _ = target.gt_pose
        with evaluation_access():
            assert target.gt_pose.z > 0
        # source ground truth is always readable
        assert split(ds, "source")[0].gt_pose.z > 0

    def test_save_load_round_trip(self, tmp_path):
        ds = make_dataset(10, 5, self.objects, CAM, self.src, self.tgt, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.kind == "pose"
        assert len(back.samples) == len(ds.samples)
        with evaluation_access():
            for sa, sb in zip(ds.samples, back.samples):
                assert sa.id == sb.id and sa.domain == sb.domain
                np.testing.assert_array_equal(sa.observation, sb.observation)
                np.testing.assert_array_equal(sa.gt_pose.rotation, sb.gt_pose.rotation)
                np.testing.assert_array_equal(sa.gt_pose.translation,
                                              sb.gt_pose.translation)
        np.testing.assert_array_equal(back.objects[1].points, ds.objects[1].points)
        assert back.objects[1].is_symmetric

    def test_files_with_box_field_still_load(self, tmp_path):
        # dataset files used to carry a detection box per sample
        ds = make_dataset(4, 2, self.objects, CAM, self.src, self.tgt, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        old = [lines[0]] + [json.dumps(dict(json.loads(l), box=[1.0, 2.0, 3.0, 4.0]))
                            for l in lines[1:]]
        path.write_text("\n".join(old) + "\n")
        back = load_dataset(path)
        for sa, sb in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(sa.observation, sb.observation)

    @pytest.mark.parametrize("cut", ["mid-line", "line-boundary", "empty"])
    def test_truncated_file_raises_dataset_error(self, tmp_path, cut):
        ds = make_dataset(4, 2, self.objects, CAM, self.src, self.tgt, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        text = path.read_text()
        keep = {"mid-line": len(text) // 2,
                "line-boundary": text.index("\n", len(text) // 2) + 1,
                "empty": 0}[cut]
        path.write_text(text[:keep])
        with pytest.raises(DatasetError):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("t", [0.0, 0.0, 1.0, 0.5]),
        ("t", [0.0, 1.0]),
        ("r", [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
    ], ids=["translation-4", "translation-2", "rotation-8"])
    def test_malformed_pose_raises_dataset_error(self, tmp_path, field, value):
        ds = make_dataset(4, 2, self.objects, CAM, self.src, self.tgt, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["pose"][field] = value
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="corrupt"):
            load_dataset(path)

    def test_written_bytes_deterministic(self, tmp_path):
        ds = make_dataset(10, 5, self.objects, CAM, self.src, self.tgt, seed=8)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(p1, ds)
        save_dataset(p2, make_dataset(10, 5, self.objects, CAM, self.src,
                                      self.tgt, seed=8))
        assert p1.read_bytes() == p2.read_bytes()

    def test_counts_validated(self):
        with pytest.raises(InvalidArgumentError):
            make_dataset(0, 5, self.objects, CAM, self.src, self.tgt, seed=0)


class TestScalarTask:
    def shift(self):
        return ScalarShiftConfig(
            source=make_domain_config(0.0, 0.01, 0.0, seed=1),
            target=make_domain_config(0.7, 0.02, 0.0, seed=2))

    def test_deterministic(self):
        a = make_scalar_task(30, 10, self.shift(), seed=3)
        b = make_scalar_task(30, 10, self.shift(), seed=3)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.observation, sb.observation)

    def test_targets_within_range(self):
        ds = make_scalar_task(50, 20, self.shift(), seed=4)
        with evaluation_access():
            for s in ds.samples:
                assert SCALAR_RANGE[0] <= s.gt_pose.z <= SCALAR_RANGE[1]

    def test_linear_oracle_achieves_tiny_mae(self):
        # supervised upper bound: ridge-style least squares on target labels
        ds = make_scalar_task(10, 400, self.shift(), seed=5)
        with evaluation_access():
            target = ds.by_object(0, "target")
            X = np.stack([s.observation for s in target])
            y = np.array([s.gt_pose.z for s in target])
        Xb = np.hstack([X, np.ones((len(X), 1))])
        w, *_ = np.linalg.lstsq(Xb, y, rcond=None)
        mae = np.abs(Xb @ w - y).mean()
        assert mae < 0.01

    def test_round_trip(self, tmp_path):
        ds = make_scalar_task(6, 4, self.shift(), seed=6)
        path = tmp_path / "scalar.txt"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.kind == "scalar"
        with evaluation_access():
            for sa, sb in zip(ds.samples, back.samples):
                np.testing.assert_array_equal(sa.observation, sb.observation)
                assert sa.gt_pose.z == sb.gt_pose.z
