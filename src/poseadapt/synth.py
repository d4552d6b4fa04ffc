"""Procedural Sim2Real benchmark: objects, observations, datasets.

Observations are 64-value vectors: a fixed smooth embedding (half linear,
half sinusoidal, both drawn once from a constant seed) of a few raw
channels, plus a per-domain nuisance offset, seeded Gaussian noise, and
optional coordinate dropout standing in for occlusion.  A pose stack's
raw channels come as one (n, r) matrix: projected model keypoints and
apparent size for the pose task, four fixed features of the target value
for the scalar task.  ``synthesize`` puts that matrix through the nuisance
channel both tasks share, in one batch.  Source and target share the
target-sampling law; only the observation channel differs.

What a run's seed draws comes from the nodes of its tree, ``seed_node``;
the embedding and the object models have constant seeds.  The poses of
both splits come from one node.  Each split's noise stream draws its
offset direction, then each object's normals and dropout uniforms,
objects in order.

A ``Dataset`` holds each domain as one ``Split``: the observation matrix
(n, obs_dim) and the ground-truth ``Pose`` stack, indexed by row like a
``Pose``.  Row order alone says which object a row shows and what it is
called: with K objects, row j of a split shows object j mod K, and
``row_names`` calls it ``<d>{j:06d}``, d the domain's initial.  The
dataset file (format 5) is ASCII: a JSON header line (kind, focal
lengths, object models, ``obs_dim``, ``n_source``, ``n_target``), then a
JSON line per split, source then target, with its domain and three
row-major blocks, each the base64 text of little-endian floats: ``obs``
(n, obs_dim) in float32, the network's input precision, ``r`` (n, 3, 3)
and ``t`` (n, 3) in float64.  How the rows were generated is the run's
``config.json``.  Loading decodes each block once.

Ground-truth poses of target-domain samples are evaluation-only: reading
them outside an ``evaluation_access()`` block raises.
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, GroundTruthAccessError, InvalidArgumentError
from .geometry import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
    farthest_point_sample,
    is_rotation,
    point_cloud_diameter,
    random_quaternions,
    quaternions_to_matrices,
)

OBS_DIM = 64
_EMBED_SEED = 0x5EEDED
N_KEYPOINTS = 10

# the random roles of a run; i counts objects where a role has a node per object
POSES, SOURCE_NOISE, TARGET_NOISE, INIT, TEACHER_ORDER, STUDENT_ORDER = range(6)


def seed_node(seed, role, i=0):
    """Node i of ``role`` in the run seed's tree: the bits of
    ``SeedSequence(seed).spawn(6)[role].spawn(i + 1)[i]``, built alone."""
    return np.random.SeedSequence(seed, spawn_key=(role, i))

_EVAL_ACCESS = contextvars.ContextVar("poseadapt_eval_access", default=False)


@contextlib.contextmanager
def evaluation_access():
    """Allow reading evaluation-only ground truth inside the block."""
    token = _EVAL_ACCESS.set(True)
    try:
        yield
    finally:
        _EVAL_ACCESS.reset(token)


@dataclass
class Split:
    """One domain's samples as stacked arrays: the observation matrix (n,
    obs_dim) and the ground-truth pose stack ``gt``.  ``len(split)`` and
    ``split[rows]`` follow the leading axis; an int row is one sample, with
    an (obs_dim,) observation and one ``Pose``.  A loaded split's
    observations are float32, a generated one's float64."""

    domain: str                  # "source" | "target"
    observation: np.ndarray
    gt: Pose = field(repr=False)

    def __len__(self):
        return len(self.observation)

    def __getitem__(self, rows):
        return Split(self.domain, self.observation[rows], self.gt[rows])

    @property
    def gt_pose(self) -> Pose:
        """Ground-truth poses; audit-guarded for the target domain."""
        if self.domain == "target" and not _EVAL_ACCESS.get():
            raise GroundTruthAccessError("target-domain ground truth is evaluation-only")
        return self.gt


def row_names(domain, rows):
    """The names of a split's rows, given by their indices in the whole
    split: row j is ``<d>{j:06d}``, d the domain's initial."""
    return [f"{domain[0]}{j:06d}" for j in rows]


@dataclass(frozen=True)
class DomainConfig:
    """Observation-space nuisance describing one domain."""

    offset: np.ndarray
    noise_scale: float
    dropout_prob: float

    def __post_init__(self):
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        if self.noise_scale < 0:
            raise InvalidArgumentError("noise scale must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise InvalidArgumentError("dropout probability must be in [0, 1]")


def make_domain_config(rng, offset_scale=0.0, noise_scale=0.0, dropout_prob=0.0,
                       obs_dim=OBS_DIM) -> DomainConfig:
    """A domain whose offset is ``offset_scale`` times a unit direction drawn
    from ``rng``, drawn even at norm 0 so that later draws do not depend on it."""
    direction = rng.standard_normal(obs_dim)
    return DomainConfig(offset=direction / np.linalg.norm(direction) * offset_scale,
                        noise_scale=noise_scale, dropout_prob=dropout_prob)


# ---------------------------------------------------------------------------
# object families

OBJECT_KINDS = ("box", "cylinder", "blob")

_ROT_Z_PI = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


def make_object(kind, seed, n_points) -> ObjectModel:
    """Deterministic point-cloud model of one shape family.

    ``box`` is a unit cube (corners always present, diameter sqrt(3));
    ``cylinder`` carries a 2-fold symmetry about its axis and its cloud is
    exactly invariant under it; ``blob`` is an asymmetric scatter.
    """
    if n_points < 4:
        raise InvalidArgumentError("need at least 4 points")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _kind_tag(kind)]))
    if kind == "box":
        corners = np.array([[sx, sy, sz] for sx in (-0.5, 0.5)
                            for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)])
        extra = n_points - len(corners)
        pts = [corners]
        if extra > 0:
            face = rng.integers(0, 6, extra)
            uv = rng.uniform(-0.5, 0.5, (extra, 2))
            # a point lies on its face's plane; uv fills the two other axes
            axis, rows = face // 2, np.arange(extra)
            surf = np.empty((extra, 3))
            surf[rows, axis] = np.where(face % 2 == 0, -0.5, 0.5)
            surf[rows[:, None], np.array([[1, 2], [0, 2], [0, 1]])[axis]] = uv
            pts.append(surf)
        points = np.vstack(pts)[:n_points]
        return ObjectModel(points=points, diameter=float(np.sqrt(3.0)))
    if kind == "cylinder":
        radius, height = 0.35, 1.0
        m = (n_points - (n_points % 2)) // 2
        theta = rng.uniform(0, 2 * np.pi, m)
        zs = rng.uniform(-height / 2, height / 2, m)
        base = np.stack([radius * np.cos(theta), radius * np.sin(theta), zs], axis=1)
        mirrored = base @ _ROT_Z_PI.T
        pts = np.vstack([base, mirrored])
        if n_points % 2 == 1:
            pts = np.vstack([pts, [[0.0, 0.0, height / 2]]])  # on-axis, symmetry-invariant
        return ObjectModel(points=pts, diameter=point_cloud_diameter(pts),
                           symmetries=(np.eye(3), _ROT_Z_PI))
    if kind == "blob":
        pts = rng.standard_normal((n_points, 3)) * np.array([0.45, 0.3, 0.2])
        pts -= pts.mean(axis=0)
        return ObjectModel(points=pts, diameter=point_cloud_diameter(pts))
    raise InvalidArgumentError(f"unknown object family {kind!r}")


def _kind_tag(kind):
    return int.from_bytes(hashlib.blake2b(kind.encode(), digest_size=4).digest(), "big")


# ---------------------------------------------------------------------------
# observation synthesis

_REF_FOCAL = 600.0
_PIX_SCALE = 200.0


def _embedding(raw_dim, obs_dim=OBS_DIM):
    """Fixed smooth embedding matrices (shared by every dataset), drawn
    from a constant seed.

    The observation keeps the raw channels directly, then fills the rest
    with sinusoidal and linear mixtures: n_sin = n_lin split of whatever
    room is left.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_EMBED_SEED, raw_dim, obs_dim]))
    rest = max(obs_dim - raw_dim, 0)
    n_sin = rest // 2
    n_lin = rest - n_sin
    a_lin = rng.standard_normal((n_lin, raw_dim)) / np.sqrt(raw_dim)
    a_sin = rng.standard_normal((n_sin, raw_dim)) * (1.5 / np.sqrt(raw_dim))
    phase = rng.uniform(0, 2 * np.pi, n_sin)
    return a_lin, a_sin, phase


def raw_observation(poses: Pose, model: ObjectModel, cam: CameraIntrinsics):
    """Geometric channels of a pose stack before embedding, (n, 2 *
    N_KEYPOINTS + 1): u, then v, of the model's farthest-point keypoints
    from its first point, then the apparent size."""
    pts = model.points
    kp = farthest_point_sample(pts, pts[0], N_KEYPOINTS, lambda x: np.linalg.norm(pts - x, axis=1))
    moved = kp @ poses.rotation.transpose(0, 2, 1) + poses.translation[:, None]
    u = cam.fx * moved[..., 0] / moved[..., 2] / _PIX_SCALE
    v = cam.fy * moved[..., 1] / moved[..., 2] / _PIX_SCALE
    size = cam.fx * model.diameter / poses.z / _REF_FOCAL
    return np.concatenate([u, v, size[:, None]], axis=1)


def synthesize(raw, poses: Pose, dc: DomainConfig, rng):
    """Observations (n, len(dc.offset)) of raw channels (n, r) under one
    domain's nuisance model: embedded, offset, noised and dropped out.

    ``rng`` draws the (n, width) normals in one call, then, if the domain
    drops coordinates, the (n, width) uniforms in another.  The embedding
    is a stacked matrix-vector product, which gives each row the bits of
    ``a @ raw[i]``.
    """
    if np.any(poses.z <= 0):
        raise InvalidArgumentError("pose must have positive depth")
    width = len(dc.offset)
    a_lin, a_sin, phase = _embedding(raw.shape[1], width)
    clean = np.concatenate([raw[:, :width], np.sin((a_sin @ raw[..., None])[..., 0] + phase),
                            (a_lin @ raw[..., None])[..., 0]], axis=1)
    clean += dc.offset            # in place, in the order of clean + offset + noise * scale
    clean += rng.standard_normal((len(raw), width)) * dc.noise_scale
    if dc.dropout_prob > 0:
        clean[rng.random((len(raw), width)) < dc.dropout_prob] = 0.0
    return clean


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Both domains' splits, row j of each showing object j mod K, with
    the K object models, their kinds and the camera."""

    kind: str                    # "pose" | "scalar"
    source: Split
    target: Split
    objects: list                # ObjectModel per object id
    object_kinds: list
    cam: CameraIntrinsics

    def by_object(self, object_id, domain):
        """Object ``object_id``'s rows of one split, as views: every K-th row."""
        split = {"source": self.source, "target": self.target}[domain]
        return split[object_id::len(self.objects)]

    @property
    def obs_dim(self):
        return self.source.observation.shape[1]


def _generate(kind, n_source, n_target, objects, domains, seed, draw, raw, **fields):
    """Both splits, source first, row j showing object j mod K, each noised
    from its node of ``seed``'s tree.  ``draw(n)`` draws the ground-truth
    pose stack of n samples, and ``raw(poses, object_id)`` gives the raw
    channels of one object's pose stack."""
    if n_source < 1 or n_target < 1:
        raise InvalidArgumentError("need at least one sample per domain")
    splits, n_obj = [], len(objects)
    for domain, n, spec, role in zip(("source", "target"), (n_source, n_target), domains,
                                     (SOURCE_NOISE, TARGET_NOISE)):
        rng = np.random.default_rng(seed_node(seed, role))
        gt, dc = draw(n), make_domain_config(rng, *spec)
        obs = np.empty((n, len(dc.offset)))
        for k in range(n_obj):
            obs[k::n_obj] = synthesize(raw(gt[k::n_obj], k), gt[k::n_obj], dc, rng)
        splits.append(Split(domain, obs, gt))
    return Dataset(kind, *splits, objects=list(objects), **fields)


def make_dataset(n_source, n_target, objects, cam: CameraIntrinsics, source, target, seed,
                 sample_ranges, object_kinds=None) -> Dataset:
    """Seeded benchmark dataset: uniform rotations, and v_x, v_y and z
    uniform over ``sample_ranges`` ("vx" / "vy" / "z" -> (low, high)).
    Each domain is an (offset norm, noise scale, dropout probability).

    Objects are assigned round-robin; both domains draw poses from the
    same law.  Target ground truth is retained but evaluation-only.
    """
    rng = np.random.default_rng(seed_node(seed, POSES))

    def draw(n):
        rots = quaternions_to_matrices(random_quaternions(n, rng))
        vx, vy, z = (rng.uniform(*sample_ranges[c], n) for c in ("vx", "vy", "z"))
        return Pose(rots, np.stack([vx * z / cam.fx, vy * z / cam.fy, z], axis=1))

    return _generate("pose", n_source, n_target, objects, (source, target), seed, draw,
                     lambda poses, k: raw_observation(poses, objects[k], cam),
                     object_kinds=list(object_kinds or [""] * len(objects)), cam=cam)


# ---------------------------------------------------------------------------
# scalar-target task

SCALAR_RANGE = (0.5, 1.0)
# the scalar task's model, a unit tetrahedron: any cloud works, rotation is always the identity
_SCALAR_POINTS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                           [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) * 0.05


def _scalar_raw(s):
    """The scalar task's raw channels (n, 4) of target values s (n,)."""
    # the datasets define this channel by libm pow, which float_power calls;
    # ** 2 on an array multiplies, off in the last bit for some s (0.6562978235505856)
    return np.stack([s, np.float_power(s - 0.75, 2), np.sin(2 * np.pi * s),
                     np.cos(np.pi * s)], axis=1)


def make_scalar_task(n_source, n_target, source, target, seed) -> Dataset:
    """Scalar-regression UDA dataset: target variable in [0.5, 1.0], the
    domains given as in ``make_dataset``.

    The scalar rides in the depth slot of an otherwise trivial pose, so the
    full head machinery applies with only the z branch enabled.
    """
    rng = np.random.default_rng(seed_node(seed, POSES))

    def draw(n):
        translation = np.zeros((n, 3))
        translation[:, 2] = rng.uniform(SCALAR_RANGE[0], SCALAR_RANGE[1], n)
        return Pose(np.tile(np.eye(3), (n, 1, 1)), translation)

    return _generate("scalar", n_source, n_target, [ObjectModel.from_points(_SCALAR_POINTS)],
                     (source, target), seed, draw,
                     lambda poses, k: _scalar_raw(poses.z), object_kinds=["scalar"],
                     cam=CameraIntrinsics(fx=_REF_FOCAL, fy=_REF_FOCAL))


# ---------------------------------------------------------------------------
# dataset file format (versioned JSON lines)

_DATASET_FORMAT = "poseadapt-dataset"
_DATASET_VERSION = 5


def _encode(values, dtype):
    """The base64 text of an array's bytes as ``dtype``."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _decode(text, dtype):
    """The ``dtype`` values ``_encode`` wrote as ``text``."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def save_dataset(path, ds: Dataset):
    """Versioned text: one JSON header line, then one JSON line per split,
    source then target, whose ``obs``, ``r`` and ``t`` blocks are ``_encode``d.
    An observation that float32 cannot hold raises InvalidArgumentError
    before the file is opened."""
    splits = (ds.source, ds.target)
    with np.errstate(over="ignore"):        # a value past float32's range becomes inf
        obs = [split.observation.astype("<f4") for split in splits]
    for split, values in zip(splits, obs):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise InvalidArgumentError(f"{split.domain} row {bad[0]}: an observation value "
                                       f"that is not a finite float32")
    header = {"format": _DATASET_FORMAT, "version": _DATASET_VERSION, "kind": ds.kind,
              "camera": vars(ds.cam), "obs_dim": ds.obs_dim,
              "n_source": len(ds.source), "n_target": len(ds.target),
              "objects": [{"kind": kind, "points": model.points.tolist(),
                           "diameter": model.diameter,
                           "symmetries": [np.asarray(s).reshape(9).tolist()
                                          for s in model.symmetries]}
                          for kind, model in zip(ds.object_kinds, ds.objects)]}
    with open(path, "w") as f, evaluation_access():
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for split, values in zip(splits, obs):
            # the line json.dump(..., sort_keys=True) writes: base64 has nothing to escape
            gt = split.gt_pose
            f.write(f'{{"domain": "{split.domain}", "obs": "{_encode(values, "<f4")}", '
                    f'"r": "{_encode(gt.rotation, "<f8")}", '
                    f'"t": "{_encode(gt.translation, "<f8")}"}}\n')


def load_dataset(path) -> Dataset:
    """Read a dataset file, decoding each split's blocks once; a malformed
    or truncated file raises DatasetError."""
    try:
        with open(path) as f:
            return _parse_dataset(path, f)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        raise DatasetError(f"{path}: corrupt dataset ({type(e).__name__}: {e})") from e


def _parse_dataset(path, lines) -> Dataset:
    header = json.loads(next(lines, ""))     # an empty file fails to parse
    if header.get("format") != _DATASET_FORMAT:
        raise DatasetError(f"{path}: not a poseadapt dataset file")
    if header.get("version") != _DATASET_VERSION:
        raise DatasetError(f"{path}: dataset version {header.get('version')!r}, this build "
                           f"reads version {_DATASET_VERSION}; re-run gen-data")
    if header["kind"] not in ("pose", "scalar"):
        raise DatasetError(f"{path}: corrupt dataset header: kind {header['kind']!r} is "
                           f"neither 'pose' nor 'scalar'")
    cam = CameraIntrinsics(**header["camera"])
    objects = [ObjectModel(points=np.array(od["points"]), diameter=od["diameter"],
                           symmetries=tuple(np.array(s).reshape(3, 3) for s in od["symmetries"]))
               for od in header["objects"]]
    if not objects:
        raise DatasetError(f"{path}: the header lists no objects")
    sizes = {key: header.get(key) for key in ("obs_dim", "n_source", "n_target")}
    for key, value in sizes.items():
        if type(value) is not int or value < 1:     # a bool is no size
            raise DatasetError(f"{path}: corrupt dataset header: {key} {value!r} is not a "
                               f"positive integer")
    width, splits = sizes["obs_dim"], {}
    for line, domain in enumerate(("source", "target"), start=2):   # one line per split
        where, count = f"{path}: corrupt dataset, line {line}", sizes[f"n_{domain}"]
        text = next(lines, "")
        if not text:
            raise DatasetError(f"{where}: the file ends before the {domain} split")
        rec, text = json.loads(text), None      # hold one copy of a split's text at a time
        if rec["domain"] != domain:
            raise DatasetError(f"{where}: domain {rec['domain']!r}, expected {domain!r}")
        try:
            obs, r, t = (_decode(rec.pop(k), dtype) for k, dtype in
                         (("obs", "<f4"), ("r", "<f8"), ("t", "<f8")))
            if (len(obs), len(r), len(t)) != (count * width, count * 9, count * 3):
                raise ValueError(f"obs, r and t need {count * width}, {count * 9} and "
                                 f"{count * 3} values")
        except (ValueError, TypeError) as e:      # not base64, not whole floats, wrong size
            raise DatasetError(f"{where}: {e}") from e
        splits[domain] = Split(domain, obs.reshape(-1, width),
                               Pose(r.reshape(-1, 3, 3), t.reshape(-1, 3)))
        _check_poses(where, splits[domain])
    if next(lines, ""):
        raise DatasetError(f"{path}: corrupt dataset, line 4: a line after the target split")
    return Dataset(kind=header["kind"], source=splits["source"], target=splits["target"],
                   objects=objects, object_kinds=[od["kind"] for od in header["objects"]],
                   cam=cam)


def _check_poses(where, split: Split):
    """Refuse the first row that no sample can have: a non-finite value, a
    depth at or behind the camera, or a rotation that is not orthonormal
    with determinant +1."""
    gt = split.gt
    finite = (np.isfinite(split.observation).all(axis=1) & np.isfinite(gt.translation).all(axis=1)
              & np.isfinite(gt.rotation).all(axis=(1, 2)))
    why = np.select([~finite, ~(gt.z > 0), ~is_rotation(gt.rotation)],
                    ["a non-finite value", "a depth that is not positive",
                     "a rotation that is not orthonormal"], default="")
    bad = np.flatnonzero(why)
    if bad.size:
        raise DatasetError(f"{where}: row {bad[0]}: {why[bad[0]]}")
