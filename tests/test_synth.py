"""Benchmark generator tests: determinism, domain statistics, guards."""

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poseadapt.errors import DatasetError, GroundTruthAccessError, InvalidArgumentError
from poseadapt.geometry import AnchorSet, CameraIntrinsics, Pose, generate_rotation_anchors
from poseadapt.labeling import anchor_distances
from poseadapt import synth
from poseadapt.metrics import evaluate_pose, predict_poses
from poseadapt.network import NetworkConfig, PoseNetwork
from poseadapt.synth import (
    OBS_DIM,
    SCALAR_RANGE,
    TARGET_NOISE,
    evaluation_access,
    load_dataset,
    make_dataset,
    make_domain_config,
    make_object,
    make_scalar_task,
    raw_observation,
    row_names,
    save_dataset,
    seed_node,
    synthesize,
)

from helpers import (
    ANCHOR_RANGES,
    SAMPLE_RANGES,
    decode_floats,
    edit_block,
    encode_floats,
    per_sample_records,
    random_rotations,
    version_3_record,
    version_4_header,
)

CAM = CameraIntrinsics(fx=600.0, fy=600.0)
# finite float64s, with signed zeros, subnormals and +-1e308 drawn often
FLOAT64S = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))
F32_MAX = float(np.finfo(np.float32).max)
# finite float32s, with signed zeros, subnormals and +-float32 max drawn often
FLOAT32S = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0 ** -149, -(2.0 ** -149), 2.0 ** -127, F32_MAX, -F32_MAX]),
    st.floats(width=32, allow_nan=False, allow_infinity=False))


def midpoint(x):
    """The float64 halfway between the float32 ``x`` and the next float32 up."""
    x = np.float32(x)
    return (float(x) + float(np.nextafter(x, np.float32(np.inf)))) / 2


# float64s that float32 storage rounds: halfway between two float32s (a tie
# rounds to the even one), signed zeros, float64 subnormals (to zero),
# float32 subnormals and their halves, +-float32 max and the largest float64s
# that still round to it
OBS64 = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -149, -(2.0 ** -149), 2.0 ** -150,
                     -3 * 2.0 ** -150, 2.0 ** -126, F32_MAX, -F32_MAX,
                     float(np.nextafter(F32_MAX + 2.0 ** 103, 0.0)),
                     -float(np.nextafter(F32_MAX + 2.0 ** 103, 0.0))]),
    st.floats(width=32, min_value=-1e4, max_value=1e4).map(midpoint),
    st.floats(width=32, min_value=-F32_MAX, max_value=F32_MAX, exclude_max=True).map(midpoint),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-F32_MAX, max_value=F32_MAX))


def assert_bits_equal(want, got):
    assert want.dtype == got.dtype and want.shape == got.shape
    np.testing.assert_array_equal(want.view(f"u{want.itemsize}"), got.view(f"u{got.itemsize}"))


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


def domain(offset=0.0, noise=0.0, dropout=0.0, seed=0):
    """A domain config whose offset direction a generator of ``seed`` draws."""
    return make_domain_config(np.random.default_rng(seed), offset, noise, dropout)


class TestSynthesize:
    def setup_method(self):
        self.obj = make_object("box", seed=0, n_points=64)

    def observe(self, poses, dc, seed=0):
        return synthesize(raw_observation(poses, self.obj, CAM), poses, dc,
                          np.random.default_rng(seed))

    def test_deterministic_for_same_pose_and_config(self):
        dc = domain(0.0, 0.1, 0.2, seed=5)
        poses = Pose(np.stack([rot_z(0.4), rot_z(-1.3)]), [[0.05, 0.0, 1.2], [0.0, -0.1, 0.9]])
        a = self.observe(poses, dc)
        b = self.observe(poses, dc)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, OBS_DIM)

    def test_depth_moves_size_channel(self):
        dc = domain()
        near_far = Pose(np.tile(np.eye(3), (2, 1, 1)), [[0.0, 0.0, 0.8], [0.0, 0.0, 1.6]])
        raw = raw_observation(near_far, self.obj, CAM)
        assert raw[0, -1] > raw[1, -1]       # the apparent size, the last raw channel
        obs = self.observe(near_far, dc)
        assert not np.array_equal(obs[0], obs[1])

    def test_mean_displacement_matches_offset(self):
        # Monte-Carlo oracle: averaged over poses, target minus source
        # observations equal the configured nuisance offset within 3 sigma.
        rng = np.random.default_rng(7)
        noise = 0.05
        src, tgt = domain(0.0, noise, seed=1), domain(0.9, noise, seed=2)
        n = 200
        rotations = random_rotations(n, rng)
        translations = np.zeros((n, 3))
        translations[:, 2] = rng.uniform(0.6, 1.5, n)
        poses = Pose(rotations, translations)
        mean_diff = (self.observe(poses, tgt, seed=3)
                     - self.observe(poses, src, seed=4)).mean(axis=0)
        # two independent noise draws: std of the mean is noise*sqrt(2/n)
        bound = 3.0 * noise * np.sqrt(2.0 / n)
        assert np.all(np.abs(mean_diff - (tgt.offset - src.offset)) < bound)

    def test_dropout_zeroes_coordinates(self):
        dc = domain(dropout=0.9)
        obs = self.observe(Pose(np.eye(3)[None], [[0.0, 0.0, 1.0]]), dc)
        assert np.count_nonzero(obs == 0.0) > OBS_DIM // 2

    def test_nonpositive_depth_rejected(self):
        dc = domain()
        poses = Pose(np.tile(np.eye(3), (2, 1, 1)), [[0, 0, 1.0], [0, 0, -1.0]])
        with pytest.raises(InvalidArgumentError):
            self.observe(poses, dc)


class TestSeedTree:
    """Every random role of a run draws from its own node of the run
    seed's tree, and the noise of a split is one stream."""

    @pytest.mark.parametrize("seed, role, i", [(0, synth.POSES, 0), (3, TARGET_NOISE, 0),
                                               (2 ** 64 + 5, synth.INIT, 2),
                                               (7, synth.STUDENT_ORDER, 5)])
    def test_a_node_is_the_child_that_spawning_gives(self, seed, role, i):
        child = np.random.SeedSequence(seed).spawn(6)[role].spawn(i + 1)[i]
        assert_bits_equal(child.generate_state(8), seed_node(seed, role, i).generate_state(8))

    def test_no_two_roles_share_a_stream(self):
        """No two nodes of seeds 5 and 6, six roles and three objects
        start alike, among them the source and target noise of a seed,
        seed 5's target noise against seed 6's source noise, and object
        i + 1 at seed 5 against object i at seed 6."""
        nodes = [(seed, role, i) for seed in (5, 6) for role in range(6) for i in range(3)]
        starts = {seed_node(*node).generate_state(4).tobytes() for node in nodes}
        assert len(starts) == len(nodes)

    @staticmethod
    def noise(task, source, target, seed, n=(300, 200)):
        """Each split's observations less those of the same dataset at zero
        noise: the same poses, offset and dropout mask."""
        def make(*domains):
            if task == "scalar":
                return make_scalar_task(*n, *domains, seed=seed)
            objects = [make_object("box", seed=0, n_points=48),
                       make_object("blob", seed=2, n_points=48)]
            return make_dataset(*n, objects, CAM, *domains, seed=seed,
                                sample_ranges=SAMPLE_RANGES)
        noisy, clean = make(source, target), make(*((o, 0.0, p) for o, _, p in (source, target)))
        return [(a.observation - b.observation, a.observation)
                for a, b in ((noisy.source, clean.source), (noisy.target, clean.target))]

    @pytest.mark.parametrize("task", ["pose", "scalar"])
    def test_each_split_draws_its_noise_at_its_scale(self, task):
        """The noise of each split is standard normal times its scale, and
        its dropout zeroes its share of coordinates."""
        source, target = (0.0, 0.01, 0.0), (0.7, 0.04, 0.1 if task == "pose" else 0.0)
        for (noise, obs), (_, scale, dropout) in zip(self.noise(task, source, target, seed=3),
                                                     (source, target)):
            kept = noise[obs != 0.0] / scale
            assert abs(kept.std() - 1.0) < 0.03 and abs(kept.mean()) < 0.03
            assert abs(np.mean(obs == 0.0) - dropout) < 0.01

    def test_no_split_shares_a_noise_stream(self):
        """Source against target noise of seed 4, and seed 4's target
        noise against seed 5's source noise, are uncorrelated."""
        (s4, _), (t4, _) = self.noise("scalar", (0.0, 0.01, 0.0), (0.0, 0.01, 0.0), seed=4,
                                      n=(100, 100))
        (s5, _), _ = self.noise("scalar", (0.0, 0.01, 0.0), (0.0, 0.01, 0.0), seed=5,
                                n=(100, 100))
        for a, b in ((s4, t4), (t4, s5)):
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.1

    def test_the_target_offset_is_the_first_draw_of_its_stream(self):
        """The target split's offset direction comes first from its noise
        stream: at zero noise every target row is the source row of its
        pose plus that offset."""
        ds = make_scalar_task(5, 5, (0.0, 0.0, 0.0), (0.7, 0.0, 0.0), seed=6)
        want = domain(0.7, seed=seed_node(6, TARGET_NOISE)).offset
        assert np.linalg.norm(want) == pytest.approx(0.7)
        with evaluation_access():
            clean = synthesize(synth._scalar_raw(ds.target.gt_pose.z), ds.target.gt_pose,
                               domain(), np.random.default_rng(0))
        np.testing.assert_allclose(ds.target.observation - clean, np.tile(want, (5, 1)),
                                   rtol=0, atol=1e-12)


class TestDomainConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            domain(noise=-0.1)
        with pytest.raises(InvalidArgumentError):
            domain(dropout=1.5)


class TestMakeDataset:
    def setup_method(self):
        self.objects = [make_object("box", seed=0, n_points=48),
                        make_object("cylinder", seed=1, n_points=48)]
        self.src, self.tgt = (0.0, 0.02, 0.0), (0.5, 0.05, 0.0)

    def dataset(self, n_source, n_target, seed):
        return make_dataset(n_source, n_target, self.objects, CAM, self.src, self.tgt, seed=seed,
                            sample_ranges=SAMPLE_RANGES)

    def test_deterministic(self):
        a = self.dataset(40, 20, seed=9)
        b = self.dataset(40, 20, seed=9)
        for sa, sb in ((a.source, b.source), (a.target, b.target)):
            np.testing.assert_array_equal(sa.observation, sb.observation)

    def test_depth_range_contract(self):
        ds = self.dataset(60, 30, seed=4)
        with evaluation_access():
            for split in (ds.source, ds.target):
                assert np.all((0.4 <= split.gt_pose.z) & (split.gt_pose.z <= 1.6))

    def test_objects_balanced_round_robin(self):
        ds = self.dataset(40, 20, seed=5)
        counts = [len(ds.by_object(i, "source")) for i in range(2)]
        assert counts == [20, 20]

    def test_rotation_uniformity_two_sample(self):
        # distances-to-nearest-anchor of dataset rotations should be
        # indistinguishable from those of fresh uniform rotations
        from scipy import stats
        anchors = generate_rotation_anchors(60, seed=0)
        ds = self.dataset(400, 1, seed=6)
        with evaluation_access():
            d_data = [anchor_distances(m, anchors).min() for m in ds.source.gt_pose.rotation]
        fresh = random_rotations(400, np.random.default_rng(77))
        d_fresh = [anchor_distances(m, anchors).min() for m in fresh]
        assert stats.ks_2samp(d_data, d_fresh).pvalue > 0.01

    def test_target_gt_guarded(self):
        ds = self.dataset(4, 4, seed=7)
        for target in (ds.target, ds.by_object(1, "target"), ds.target[0]):
            with pytest.raises(GroundTruthAccessError):
                _ = target.gt_pose
            with evaluation_access():
                assert np.all(target.gt_pose.z > 0)
            # the observations are what the student adapts on
            assert target.observation.shape[-1] == OBS_DIM
        with evaluation_access():
            assert ds.target[0].gt_pose.rotation.shape == (3, 3)
        # source ground truth is always readable
        assert np.all(ds.source.gt_pose.z > 0) and ds.source[0].gt_pose.z > 0

    def test_save_load_round_trip(self, tmp_path):
        ds = self.dataset(10, 5, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.kind == "pose" and back.cam == CAM and back.object_kinds == ["", ""]
        with evaluation_access():
            for sa, sb in ((ds.source, back.source), (ds.target, back.target)):
                assert sa.domain == sb.domain and len(sa) == len(sb)
                assert sb.observation.dtype == np.float32
                np.testing.assert_array_equal(sa.observation.astype(np.float32), sb.observation)
                np.testing.assert_array_equal(sa.gt_pose.rotation, sb.gt_pose.rotation)
                np.testing.assert_array_equal(sa.gt_pose.translation,
                                              sb.gt_pose.translation)
        np.testing.assert_array_equal(back.objects[1].points, ds.objects[1].points)
        assert back.objects[1].is_symmetric

    @pytest.mark.parametrize("cut", ["mid-line", "line-boundary", "empty"])
    def test_truncated_file_raises_dataset_error(self, tmp_path, cut):
        ds = self.dataset(4, 2, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        text = path.read_text()
        keep = {"mid-line": len(text) // 2,
                "line-boundary": text.index("\n", len(text) // 2) + 1,
                "empty": 0}[cut]
        path.write_text(text[:keep])
        with pytest.raises(DatasetError):
            load_dataset(path)

    @pytest.mark.parametrize("field, edit", [
        ("t", lambda t: [*t[:3], 0.5, *t[3:]]),
        ("t", lambda t: t[:-1]),
        ("r", lambda r: r[:-1]),
    ], ids=["translation-4", "translation-2", "rotation-8"])
    def test_malformed_pose_raises_dataset_error(self, tmp_path, field, edit):
        # one value more or less in the target split's translation or
        # rotation block (file line 3)
        ds = self.dataset(4, 2, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps(edit_block(json.loads(lines[2]), field, edit))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="corrupt dataset, line 3: obs, r and t need "
                                               "128, 18 and 6 values"):
            load_dataset(path)

    @pytest.mark.parametrize("line, edit, keep, match", [
        (1, lambda rec: dict(rec, domain="tgt"), None,
         "line 2: domain 'tgt', expected 'source'"),
        (1, lambda rec: edit_block(rec, "obs", lambda obs: obs[:-1]), None,
         "line 2: obs, r and t need 256, 36 and 12 values"),
        (2, lambda rec: edit_block(rec, "obs", lambda obs: obs + [0.0]), None,
         "line 3: obs, r and t need 128"),
        (2, lambda rec: dict(rec, domain="source"), None,
         "line 3: domain 'source', expected 'target'"),
        (1, lambda rec: edit_block(rec, "obs", lambda obs: [*obs[:64], float("nan"), *obs[65:]]),
         None, "line 2: row 1: a non-finite value"),
        (1, lambda rec: edit_block(rec, "t", lambda t: [*t[:5], -0.7, *t[6:]]), None,
         "line 2: row 1: a depth that is not positive"),
        (2, lambda rec: edit_block(rec, "r", lambda r: [*r[:9], 2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0]),
         None, "line 3: row 1: a rotation that is not orthonormal"),
        (1, lambda rec: dict(rec, obs=base64.b64encode(base64.b64decode(rec["obs"])[:-2]).decode()),
         None, "line 2: buffer size must be a multiple"),
        (1, lambda rec: dict(rec, obs="*" + rec["obs"][1:]), None, "line 2: Only base64 data"),
        (0, lambda header: dict(header, version=1), None,
         "dataset version 1, this build reads version 5; re-run gen-data"),
        (0, lambda header: {k: v for k, v in header.items() if k != "n_source"}, None,
         "corrupt dataset header: n_source None is not a positive integer"),
        (0, lambda header: [header], None, "corrupt dataset"),
        (0, lambda header: dict(header, objects=[], n_source=0, n_target=0), 1,
         "the header lists no objects"),
        (0, lambda header: header, 2, "line 3: the file ends before the target split"),
        (2, lambda rec: edit_block(rec, "t", lambda t: [*t[:3], float("nan"), *t[4:]]), None,
         "line 3: row 1: a non-finite value"),
        (1, lambda rec: edit_block(rec, "r", lambda r: [*r[:30], float("inf"), *r[31:]]), None,
         "line 2: row 3: a non-finite value"),
    ], ids=["unknown-domain", "obs-63", "target-obs-65", "target-row-as-source",
            "nan-observation", "negative-depth", "scaled-rotation", "obs-bytes-not-float32s",
            "obs-not-base64", "version-1", "no-source-count", "header-not-an-object",
            "no-objects", "cut-after-source", "nan-translation-x", "infinite-rotation"])
    def test_malformed_row_raises_dataset_error(self, tmp_path, line, edit, keep, match):
        # line 0 is the header, line 1 the source split (4 rows), line 2
        # the target split (2 rows); only the first ``keep`` lines are
        # written back
        ds = self.dataset(4, 2, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        lines[line] = json.dumps(edit(json.loads(lines[line])))
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(DatasetError, match=match):
            load_dataset(path)

    def test_file_has_one_line_per_split(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(path, self.dataset(4, 2, seed=8))
        header, *splits = map(json.loads, path.read_text().splitlines())
        assert header["version"] == 5
        # the header keeps what loading reads, and no generation provenance
        assert set(header) == {"format", "version", "kind", "camera", "objects", "obs_dim",
                               "n_source", "n_target"}
        assert (header["obs_dim"], header["n_source"], header["n_target"]) == (OBS_DIM, 4, 2)
        assert header["camera"] == {"fx": 600.0, "fy": 600.0}
        assert [(rec["domain"], len(decode_floats(rec["t"])) // 3,
                 len(decode_floats(rec["obs"], "f")) // OBS_DIM) for rec in splits] == \
            [("source", 4, 4), ("target", 2, 2)]
        assert all(set(rec) == {"domain", "obs", "r", "t"} for rec in splits)

    def test_a_line_after_the_target_split_is_refused(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(path, self.dataset(4, 2, seed=8))
        path.write_text(path.read_text() + path.read_text().splitlines()[2] + "\n")
        with pytest.raises(DatasetError, match="line 4: a line after the target split"):
            load_dataset(path)

    def test_a_version_2_file_is_refused(self, tmp_path):
        """The one-line-per-sample layout of format 2 exits with a message
        that says to re-run gen-data."""
        path = tmp_path / "data.txt"
        save_dataset(path, self.dataset(4, 2, seed=8))
        header, *splits = map(json.loads, path.read_text().splitlines())
        rows = [row for rec in splits for row in per_sample_records(rec, encode_floats, 2)]
        path.write_text("".join(json.dumps(d, sort_keys=True) + "\n"
                                for d in [dict(version_4_header(header), version=2), *rows]))
        with pytest.raises(DatasetError, match="dataset version 2, this build reads version 5"):
            load_dataset(path)

    def test_a_version_3_file_is_refused(self, tmp_path):
        """Format 3's split lines, which also list each row's sample id
        and object id, exit with a message that says to re-run gen-data."""
        path = tmp_path / "data.txt"
        save_dataset(path, self.dataset(4, 2, seed=8))
        header, *splits = map(json.loads, path.read_text().splitlines())
        lines = [dict(version_4_header(header), version=3),
                 *(version_3_record(rec, 2) for rec in splits)]
        path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))
        with pytest.raises(DatasetError, match="dataset version 3, this build reads version 5"):
            load_dataset(path)

    @pytest.mark.parametrize("reload", [False, True], ids=["fresh", "loaded"])
    def test_an_object_is_every_kth_row(self, tmp_path, reload):
        """With three objects, object i's rows of a split are rows i, i + 3,
        ..., fresh from ``make_dataset`` and after a save and load; a row is
        named by its index in the split."""
        objects = [*self.objects, make_object("blob", seed=2, n_points=48)]
        ds = make_dataset(11, 7, objects, CAM, self.src, self.tgt, seed=8,
                          sample_ranges=SAMPLE_RANGES)
        if reload:
            save_dataset(tmp_path / "data.txt", ds)
            ds = load_dataset(tmp_path / "data.txt")
        with evaluation_access():
            for domain, split in (("source", ds.source), ("target", ds.target)):
                for i in range(3):
                    got, rows = ds.by_object(i, domain), np.arange(i, len(split), 3)
                    np.testing.assert_array_equal(got.observation, split.observation[rows])
                    np.testing.assert_array_equal(got.gt_pose.rotation, split.gt.rotation[rows])
                    np.testing.assert_array_equal(got.gt_pose.translation,
                                                  split.gt.translation[rows])
        assert row_names("target", range(7)[1::3]) == ["t000001", "t000004"]
        assert row_names("source", [0, 10, 123456]) == ["s000000", "s000010", "s123456"]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obs=st.lists(FLOAT32S, min_size=OBS_DIM, max_size=OBS_DIM),
           xy=st.lists(FLOAT64S, min_size=2, max_size=2),
           z=st.one_of(st.sampled_from([5e-324, 2.0 ** -1030, 1e308, 1.7976931348623157e308]),
                       st.floats(min_value=5e-324, allow_infinity=False)))
    def test_round_trip_is_bit_exact(self, tmp_path, obs, xy, z):
        """Float32 observations and float64 ground truth load with the bits
        they were saved with."""
        ds = self.dataset(1, 1, seed=8)
        ds.source.observation[0] = obs
        ds.target.gt.translation[0] = [*xy, z]
        # a rotation whose zeros are negative zeros
        ds.source.gt.rotation[0] = np.where(np.eye(3) == 0, -0.0, 1.0)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        back = load_dataset(path)
        with evaluation_access():
            for sa, sb in ((ds.source, back.source), (ds.target, back.target)):
                assert_bits_equal(sa.observation.astype(np.float32), sb.observation)
                assert_bits_equal(sa.gt_pose.rotation, sb.gt_pose.rotation)
                assert_bits_equal(sa.gt_pose.translation, sb.gt_pose.translation)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obs64=arrays(np.float64, st.tuples(st.integers(1, 5), st.just(OBS_DIM)),
                        elements=OBS64))
    def test_float32_storage_keeps_every_network_input(self, tmp_path, obs64):
        """A saved float64 observation stack loads as its float32 rounding.
        The network casts its input to float32, so its outputs and the
        predicted poses are the same bits for the float64 stack and for the
        loaded one, whole and as object 1's strided rows."""
        ds = self.dataset(len(obs64), 1, seed=8)
        ds.source.observation[...] = obs64
        save_dataset(tmp_path / "data.txt", ds)
        loaded = load_dataset(tmp_path / "data.txt").source.observation
        with np.errstate(over="ignore"):
            assert_bits_equal(obs64.astype(np.float32), loaded)
        net_cfg = NetworkConfig(obs_dim=OBS_DIM, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                                feature_dim=16, encoder_hidden=(16,), head_hidden=8)
        net, anchors = PoseNetwork(net_cfg, seed=3), AnchorSet.build(4, 3, 3, 4, *ANCHOR_RANGES,
                                                                     seed=0)

        def outputs(obs):
            poses, out = predict_poses(net, obs, anchors, CAM)
            return [out.feature, *out.probs.values(), *out.residuals.values(),
                    poses.rotation, poses.translation]

        # a value near float32's max overflows the first layer to inf and nan
        with np.errstate(all="ignore"):
            for rows in (slice(None), slice(1, None, 2))[:len(obs64)]:
                for want, got in zip(outputs(obs64[rows]), outputs(loaded[rows]), strict=True):
                    assert_bits_equal(want, got)

    @pytest.mark.parametrize("value", [1e300, F32_MAX + 2.0 ** 103, -np.inf, np.nan],
                             ids=["1e300", "float32-max-and-half-an-ulp", "-inf", "nan"])
    def test_an_observation_past_float32_is_refused_before_writing(self, tmp_path, value):
        """A value that float32 rounds to an infinity (the tie above its max
        rounds to even, up), or a value that is not finite, raises before
        the file is opened."""
        ds = self.dataset(4, 2, seed=8)
        ds.target.observation[1, 5] = value
        with pytest.raises(InvalidArgumentError, match="^target row 1: an observation value "
                                                       "that is not a finite float32$"):
            save_dataset(tmp_path / "data.txt", ds)
        assert not (tmp_path / "data.txt").exists()

    @pytest.mark.parametrize("kind", ["pose", "scalar"])
    def test_load_then_save_reproduces_the_file(self, tmp_path, kind):
        ds = (self.dataset(7, 5, seed=8) if kind == "pose"
              else make_scalar_task(6, 4, self.src, self.tgt, seed=8))
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(first, ds)
        save_dataset(second, load_dataset(first))
        assert second.read_bytes() == first.read_bytes()

    def test_written_bytes_deterministic(self, tmp_path):
        ds = self.dataset(10, 5, seed=8)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(p1, ds)
        save_dataset(p2, self.dataset(10, 5, seed=8))
        assert p1.read_bytes() == p2.read_bytes()

    def test_counts_validated(self):
        with pytest.raises(InvalidArgumentError):
            self.dataset(0, 5, seed=0)


class TestScalarTask:
    def shift(self):
        return (0.0, 0.01, 0.0), (0.7, 0.02, 0.0)

    def test_deterministic(self):
        a = make_scalar_task(30, 10, *self.shift(), seed=3)
        b = make_scalar_task(30, 10, *self.shift(), seed=3)
        np.testing.assert_array_equal(a.source.observation, b.source.observation)
        np.testing.assert_array_equal(a.target.observation, b.target.observation)

    def test_targets_within_range(self):
        ds = make_scalar_task(50, 20, *self.shift(), seed=4)
        with evaluation_access():
            for split in (ds.source, ds.target):
                z = split.gt_pose.z
                assert np.all((SCALAR_RANGE[0] <= z) & (z <= SCALAR_RANGE[1]))

    def test_linear_oracle_achieves_tiny_mae(self):
        # supervised upper bound: ridge-style least squares on target labels
        ds = make_scalar_task(10, 400, *self.shift(), seed=5)
        with evaluation_access():
            X, y = ds.target.observation, ds.target.gt_pose.z
        Xb = np.hstack([X, np.ones((len(X), 1))])
        w, *_ = np.linalg.lstsq(Xb, y, rcond=None)
        mae = np.abs(Xb @ w - y).mean()
        assert mae < 0.01

    def test_round_trip(self, tmp_path):
        ds = make_scalar_task(6, 4, *self.shift(), seed=6)
        path = tmp_path / "scalar.txt"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.kind == "scalar"
        with evaluation_access():
            for sa, sb in ((ds.source, back.source), (ds.target, back.target)):
                np.testing.assert_array_equal(sa.observation.astype(np.float32), sb.observation)
                np.testing.assert_array_equal(sa.gt_pose.z, sb.gt_pose.z)
