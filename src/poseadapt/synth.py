"""Procedural Sim2Real benchmark: objects, observations, datasets.

Observations are 64-value vectors: a fixed smooth embedding (half linear,
half sinusoidal, both drawn once from a constant seed) of a few raw
channels, plus a per-domain nuisance offset, seeded Gaussian noise, and
optional coordinate dropout standing in for occlusion.  A pose stack's
raw channels come as one (n, r) matrix: projected model keypoints and
apparent size for the pose task, four fixed features of the target value
for the scalar task.  ``synthesize`` puts that matrix through the nuisance
channel both tasks share, in one batch, and seeds every row's noise
stream at once from the domain seed and a digest of the row's pose, with
the bits of ``SeedSequence([seed, digest])``; only the draws loop over
rows.  Source and target share the target-sampling law; only the
observation channel differs.

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
import itertools
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
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        if self.noise_scale < 0:
            raise InvalidArgumentError("noise scale must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise InvalidArgumentError("dropout probability must be in [0, 1]")


def make_domain_config(offset_scale=0.0, noise_scale=0.0, dropout_prob=0.0,
                       seed=0, obs_dim=OBS_DIM) -> DomainConfig:
    """Draw a fixed unit-direction nuisance offset of the given magnitude."""
    offset = np.zeros(obs_dim)
    if offset_scale != 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
        direction = rng.standard_normal(obs_dim)
        offset = direction / np.linalg.norm(direction) * offset_scale
    return DomainConfig(offset=offset, noise_scale=noise_scale,
                        dropout_prob=dropout_prob, seed=seed)


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


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645     # PCG64's 128-bit multiplier


def _hashmix(const, mult):
    """SeedSequence's hashmix on uint32 row vectors.  Its running constant
    stays a masked Python int: numpy scalar uint32 products warn on
    overflow, where array products wrap."""
    def hashmix(words):
        nonlocal const
        words, const = words ^ const, const * mult & _MASK32
        words = words * const
        return words ^ (words >> 16)
    return hashmix


def _mix(x, y):
    out = 0xCA01F9DD * x - 0x4973F715 * y
    return out ^ (out >> 16)


def _pcg64_states(seed, digests):
    """Yield ``PCG64(SeedSequence([seed, d])).state``'s (state, inc) for each
    digest d (uint64, n).  SeedSequence's entropy mixing and
    ``generate_state(4, uint64)`` run on all rows at once.  The entropy is
    the seed's then the digest's 32-bit words, low first; rows group by
    length, and hashing past the entropy hashes zeros, so short entropy is
    padded to the pool of 4.  ``pcg64_set_seed`` then steps each state."""
    if seed < 0:
        raise InvalidArgumentError("domain seed must be >= 0")
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    high = (digests >> 32).astype(np.uint32)
    words = np.empty((len(digests), 4), np.uint64)
    for long in (False, True):
        rows = (high != 0) == long
        low = digests[rows].astype(np.uint32)
        entropy = [np.full_like(low, w) for w in seed_words] + [low] + [high[rows]] * long
        entropy += [np.zeros_like(low)] * (4 - len(entropy))
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(e) for e in entropy[:4]]
        for src, dst in itertools.permutations(range(4), 2):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for e, dst in itertools.product(entropy[4:], range(4)):
            pool[dst] = _mix(pool[dst], hashmix(e))
        hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
        words[rows] = state.astype("<u4").view("<u8")       # word pairs, low word first
    for s0, s1, q0, q1 in words.tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        yield ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc


def synthesize(raw, poses: Pose, dc: DomainConfig):
    """Observations (n, len(dc.offset)) of raw channels (n, r) under one
    domain's nuisance model: embedded, offset, noised and dropped out.

    Pure function of each row: row i's noise stream has the bits of
    ``PCG64(SeedSequence([dc.seed, digest]))``, digest a blake2b hash of
    ``poses[i]``, seeded for all rows at once; normal draws first, then the
    dropout's uniform draws.  The embedding is a stacked matrix-vector
    product, which gives each row the bits of ``a @ raw[i]``.
    """
    if np.any(poses.z <= 0):
        raise InvalidArgumentError("pose must have positive depth")
    width = len(dc.offset)
    a_lin, a_sin, phase = _embedding(raw.shape[1], width)
    clean = np.concatenate([raw[:, :width], np.sin((a_sin @ raw[..., None])[..., 0] + phase),
                            (a_lin @ raw[..., None])[..., 0]], axis=1)
    keys = np.concatenate([poses.rotation.reshape(-1, 9), poses.translation], axis=1).astype("<f8")
    digests = np.frombuffer(b"".join(hashlib.blake2b(key, digest_size=8).digest() for key in keys),
                            ">u8").astype(np.uint64)
    noise = np.empty((len(raw), width))
    uniform = np.empty((len(raw), width)) if dc.dropout_prob > 0 else None
    bits = np.random.PCG64(0)
    rng, pcg = np.random.Generator(bits), bits.state    # its has_uint32 and uinteger are 0
    for i, (state, inc) in enumerate(_pcg64_states(dc.seed, digests)):
        pcg["state"] = {"state": state, "inc": inc}
        bits.state = pcg
        rng.standard_normal(out=noise[i])
        if uniform is not None:
            rng.random(out=uniform[i])
    clean += dc.offset            # in place, in the order of clean + offset + noise * scale
    noise *= dc.noise_scale
    clean += noise
    if uniform is not None:
        clean[uniform < dc.dropout_prob] = 0.0
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


def _generate(kind, n_source, n_target, objects, cfgs, draw, raw, **fields):
    """Both splits, source first, row j showing object j mod K.  ``draw(n)``
    draws the ground-truth pose stack of n samples, and ``raw(poses,
    object_id)`` gives the raw channels of one object's pose stack."""
    if n_source < 1 or n_target < 1:
        raise InvalidArgumentError("need at least one sample per domain")
    splits, n_obj = [], len(objects)
    for domain, n, dc in zip(("source", "target"), (n_source, n_target), cfgs):
        gt, obs = draw(n), np.empty((n, len(dc.offset)))
        for k in range(n_obj):
            obs[k::n_obj] = synthesize(raw(gt[k::n_obj], k), gt[k::n_obj], dc)
        splits.append(Split(domain, obs, gt))
    return Dataset(kind, *splits, objects=list(objects), **fields)


def make_dataset(n_source, n_target, objects, cam: CameraIntrinsics,
                 source_cfg: DomainConfig, target_cfg: DomainConfig, seed, sample_ranges,
                 object_kinds=None) -> Dataset:
    """Seeded benchmark dataset: uniform rotations, and v_x, v_y and z
    uniform over ``sample_ranges`` ("vx" / "vy" / "z" -> (low, high)).

    Objects are assigned round-robin; both domains draw poses from the
    same law.  Target ground truth is retained but evaluation-only.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))

    def draw(n):
        rots = quaternions_to_matrices(random_quaternions(n, rng))
        vx, vy, z = (rng.uniform(*sample_ranges[c], n) for c in ("vx", "vy", "z"))
        return Pose(rots, np.stack([vx * z / cam.fx, vy * z / cam.fy, z], axis=1))

    return _generate("pose", n_source, n_target, objects, (source_cfg, target_cfg), draw,
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


def make_scalar_task(n_source, n_target, source_cfg: DomainConfig, target_cfg: DomainConfig,
                     seed) -> Dataset:
    """Scalar-regression UDA dataset: target variable in [0.5, 1.0].

    The scalar rides in the depth slot of an otherwise trivial pose, so the
    full head machinery applies with only the z branch enabled.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CA1A]))

    def draw(n):
        translation = np.zeros((n, 3))
        translation[:, 2] = rng.uniform(SCALAR_RANGE[0], SCALAR_RANGE[1], n)
        return Pose(np.tile(np.eye(3), (n, 1, 1)), translation)

    return _generate("scalar", n_source, n_target, [ObjectModel.from_points(_SCALAR_POINTS)],
                     (source_cfg, target_cfg), draw,
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
