"""Procedural Sim2Real benchmark: objects, observations, datasets.

Observations are 64-value vectors: a fixed smooth embedding (half linear,
half sinusoidal, both drawn once from a constant seed) of a few raw
channels, plus a per-domain nuisance offset, seeded Gaussian noise, and
optional coordinate dropout standing in for occlusion.  The raw channels
are the projected model keypoints and apparent size for the pose task and
four fixed features of the target value for the scalar task; both tasks
pass them through the same nuisance channel.  Source and target share the
target-sampling law; only the observation channel differs.

Ground-truth poses of target-domain samples are evaluation-only: reading
them outside an ``evaluation_access()`` block raises.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, GroundTruthAccessError, InvalidArgumentError
from .geometry import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
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
class Sample:
    id: str
    domain: str                  # "source" | "target"
    object_id: int
    observation: np.ndarray
    gt: Pose = field(repr=False, default=None)

    @property
    def eval_only(self):
        return self.domain == "target"

    @property
    def gt_pose(self) -> Pose:
        """Ground-truth pose; audit-guarded for target-domain samples."""
        if self.eval_only and not _EVAL_ACCESS.get():
            raise GroundTruthAccessError(
                f"sample {self.id}: target-domain ground truth is evaluation-only")
        return self.gt


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


SIZE_CHANNEL = 2 * N_KEYPOINTS  # the apparent-size coordinate of pose observations


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


def make_object(kind, seed, n_points=128) -> ObjectModel:
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


def farthest_point_indices(points, k, start=0):
    """Greedy farthest-point subsample; deterministic for fixed input."""
    points = np.asarray(points, dtype=float)
    chosen = [start]
    d = np.linalg.norm(points - points[start], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(d))
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen)


# ---------------------------------------------------------------------------
# observation synthesis

_REF_FOCAL = 600.0
_PIX_SCALE = 200.0


@functools.lru_cache(maxsize=None)
def _embedding(raw_dim, obs_dim=OBS_DIM):
    """Fixed smooth embedding matrices (shared by every dataset), drawn
    once per shape.

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
    for a in (a_lin, a_sin, phase):
        a.flags.writeable = False      # the cache hands the same arrays to every caller
    return a_lin, a_sin, phase


def _embed(raw, obs_dim):
    a_lin, a_sin, phase = _embedding(len(raw), obs_dim)
    return np.concatenate([raw[:obs_dim], np.sin(a_sin @ raw + phase), a_lin @ raw])


def keypoints(model: ObjectModel):
    """The model's farthest-point keypoints, (N_KEYPOINTS, 3)."""
    return model.points[farthest_point_indices(model.points, N_KEYPOINTS)]


def raw_observation(pose: Pose, model: ObjectModel, cam: CameraIntrinsics, kp=None):
    """Geometric channels before embedding: projected keypoints + size.
    ``kp`` is ``keypoints(model)``, computed here when not given."""
    kp = keypoints(model) if kp is None else kp
    moved = kp @ pose.rotation.T + pose.translation
    u = cam.fx * moved[:, 0] / moved[:, 2] / _PIX_SCALE
    v = cam.fy * moved[:, 1] / moved[:, 2] / _PIX_SCALE
    size = cam.fx * model.diameter / pose.z / _REF_FOCAL
    return np.concatenate([u, v, [size]])


def _pose_hash(pose: Pose):
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(pose.rotation, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(pose.translation, dtype="<f8").tobytes())
    return int.from_bytes(h.digest(), "big")


def synthesize(pose: Pose, model: ObjectModel, cam: CameraIntrinsics,
               dc: DomainConfig, kp=None):
    """Observation vector for a pose under one domain's nuisance model.

    Pure function of its arguments: the noise stream is seeded from the
    domain seed and a digest of the pose.  ``kp`` as in ``raw_observation``.
    """
    if pose.z <= 0:
        raise InvalidArgumentError("pose must have positive depth")
    return _observe(raw_observation(pose, model, cam, kp), pose, dc)


def _observe(raw, pose: Pose, dc: DomainConfig):
    """Embed raw channels and apply one domain's offset, noise and dropout;
    the noise stream is keyed by the domain seed and the pose."""
    clean = _embed(raw, len(dc.offset))
    rng = np.random.default_rng(np.random.SeedSequence([dc.seed, _pose_hash(pose)]))
    obs = clean + dc.offset + rng.standard_normal(len(clean)) * dc.noise_scale
    if dc.dropout_prob > 0:
        obs = np.where(rng.random(len(obs)) < dc.dropout_prob, 0.0, obs)
    return obs


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    kind: str                    # "pose" | "scalar"
    samples: list
    objects: list                # ObjectModel per object id
    object_kinds: list
    cam: CameraIntrinsics
    source_cfg: DomainConfig
    target_cfg: DomainConfig
    seed: int
    meta: dict = field(default_factory=dict)

    def by_object(self, object_id, domain):
        return [s for s in self.samples if s.object_id == object_id and s.domain == domain]

    @property
    def obs_dim(self):
        return len(self.samples[0].observation)


DEFAULT_SAMPLE_RANGES = {"vx": (-160.0, 160.0), "vy": (-160.0, 160.0), "z": (0.4, 1.6)}


def make_dataset(n_source, n_target, objects, cam: CameraIntrinsics,
                 source_cfg: DomainConfig, target_cfg: DomainConfig, seed,
                 object_kinds=None, sample_ranges=None) -> Dataset:
    """Seeded benchmark dataset: uniform rotations, uniform v_x/v_y/z.

    Objects are assigned round-robin; both domains draw poses from the
    same law.  Target ground truth is retained but evaluation-only.
    """
    if n_source < 1 or n_target < 1:
        raise InvalidArgumentError("need at least one sample per domain")
    ranges = dict(DEFAULT_SAMPLE_RANGES)
    if sample_ranges:
        ranges.update(sample_ranges)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    kps = [keypoints(model) for model in objects]
    samples = []
    for domain, n, prefix in (("source", n_source, "s"), ("target", n_target, "t")):
        dc = source_cfg if domain == "source" else target_cfg
        quats = random_quaternions(n, rng)
        rots = quaternions_to_matrices(quats)
        vx = rng.uniform(*ranges["vx"], n)
        vy = rng.uniform(*ranges["vy"], n)
        z = rng.uniform(*ranges["z"], n)
        for i in range(n):
            obj_id = i % len(objects)
            pose = Pose(rots[i], np.array([vx[i] * z[i] / cam.fx,
                                           vy[i] * z[i] / cam.fy, z[i]]))
            obs = synthesize(pose, objects[obj_id], cam, dc, kps[obj_id])
            samples.append(Sample(id=f"{prefix}{i:06d}", domain=domain,
                                  object_id=obj_id, observation=obs, gt=pose))
    return Dataset(kind="pose", samples=samples, objects=list(objects),
                   object_kinds=list(object_kinds or [""] * len(objects)),
                   cam=cam, source_cfg=source_cfg, target_cfg=target_cfg, seed=seed,
                   meta={"n_source": n_source, "n_target": n_target, "ranges": ranges})


# ---------------------------------------------------------------------------
# scalar-target task

SCALAR_RANGE = (0.5, 1.0)


@dataclass(frozen=True)
class ScalarShiftConfig:
    """Domain pair for the scalar-target task."""

    source: DomainConfig
    target: DomainConfig


def _scalar_raw(s):
    return np.array([s, (s - 0.75) ** 2, np.sin(2 * np.pi * s), np.cos(np.pi * s)])


def _scalar_model() -> ObjectModel:
    # unit tetrahedron: any cloud works, rotation is always the identity
    pts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) * 0.05
    return ObjectModel.from_points(pts)


def make_scalar_task(n_source, n_target, shift_cfg: ScalarShiftConfig, seed) -> Dataset:
    """Scalar-regression UDA dataset: target variable in [0.5, 1.0].

    The scalar rides in the depth slot of an otherwise trivial pose, so the
    full head machinery applies with only the z branch enabled.
    """
    if n_source < 1 or n_target < 1:
        raise InvalidArgumentError("need at least one sample per domain")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CA1A]))
    cam = CameraIntrinsics(fx=_REF_FOCAL, fy=_REF_FOCAL, cx=0.0, cy=0.0)
    model = _scalar_model()
    samples = []
    for domain, n, prefix in (("source", n_source, "s"), ("target", n_target, "t")):
        dc = shift_cfg.source if domain == "source" else shift_cfg.target
        values = rng.uniform(SCALAR_RANGE[0], SCALAR_RANGE[1], n)
        for i in range(n):
            pose = Pose(np.eye(3), np.array([0.0, 0.0, values[i]]))
            obs = _observe(_scalar_raw(values[i]), pose, dc)
            samples.append(Sample(id=f"{prefix}{i:06d}", domain=domain,
                                  object_id=0, observation=obs, gt=pose))
    return Dataset(kind="scalar", samples=samples, objects=[model],
                   object_kinds=["scalar"], cam=cam, source_cfg=shift_cfg.source,
                   target_cfg=shift_cfg.target, seed=seed,
                   meta={"n_source": n_source, "n_target": n_target,
                         "scalar_range": list(SCALAR_RANGE)})


# ---------------------------------------------------------------------------
# dataset file format (versioned JSON lines)

_DATASET_FORMAT = "poseadapt-dataset"
_DATASET_VERSION = 1


def _domain_cfg_dict(dc: DomainConfig):
    return {"offset": dc.offset.tolist(), "noise_scale": dc.noise_scale,
            "dropout_prob": dc.dropout_prob, "seed": dc.seed}


def _domain_cfg_from(d):
    return DomainConfig(offset=np.array(d["offset"]), noise_scale=d["noise_scale"],
                        dropout_prob=d["dropout_prob"], seed=d["seed"])


def save_dataset(path, ds: Dataset):
    """Versioned structured text: one header line, one line per sample."""
    header = {
        "format": _DATASET_FORMAT,
        "version": _DATASET_VERSION,
        "kind": ds.kind,
        "seed": ds.seed,
        "camera": {"fx": ds.cam.fx, "fy": ds.cam.fy, "cx": ds.cam.cx, "cy": ds.cam.cy},
        "source_config": _domain_cfg_dict(ds.source_cfg),
        "target_config": _domain_cfg_dict(ds.target_cfg),
        "objects": [{
            "kind": ds.object_kinds[i],
            "points": ds.objects[i].points.tolist(),
            "diameter": ds.objects[i].diameter,
            "symmetries": [np.asarray(s).reshape(9).tolist() for s in ds.objects[i].symmetries],
        } for i in range(len(ds.objects))],
        "meta": ds.meta,
    }
    lines = [json.dumps(header, sort_keys=True)]
    with evaluation_access():
        for s in ds.samples:
            rec = {
                "id": s.id, "domain": s.domain, "object": s.object_id,
                "obs": s.observation.tolist(),
                "pose": {"r": s.gt_pose.rotation.reshape(9).tolist(),
                         "t": s.gt_pose.translation.tolist()},
                "gt_eval_only": s.eval_only,
            }
            lines.append(json.dumps(rec, sort_keys=True))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or truncated file raises DatasetError."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
        return _parse_dataset(path, lines)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise DatasetError(f"{path}: corrupt dataset ({type(e).__name__}: {e})") from e


def _parse_dataset(path, lines) -> Dataset:
    header = json.loads(lines[0])
    if header.get("format") != _DATASET_FORMAT:
        raise DatasetError(f"{path}: not a poseadapt dataset file")
    if header.get("version") != _DATASET_VERSION:
        raise DatasetError(f"{path}: unsupported dataset version")
    cam = CameraIntrinsics(**header["camera"])
    objects, kinds = [], []
    for od in header["objects"]:
        objects.append(ObjectModel(
            points=np.array(od["points"]), diameter=od["diameter"],
            symmetries=tuple(np.array(s).reshape(3, 3) for s in od["symmetries"])))
        kinds.append(od["kind"])
    samples = []
    for line in lines[1:]:
        rec = json.loads(line)
        pose = Pose(np.array(rec["pose"]["r"]).reshape(3, 3), np.array(rec["pose"]["t"]))
        samples.append(Sample(
            id=rec["id"], domain=rec["domain"], object_id=rec["object"],
            observation=np.array(rec["obs"]), gt=pose))
    meta = header.get("meta", {})
    if "n_source" in meta and len(samples) != meta["n_source"] + meta["n_target"]:
        raise DatasetError(f"{path}: truncated, {len(samples)} of "
                           f"{meta['n_source'] + meta['n_target']} samples")
    return Dataset(kind=header["kind"], samples=samples, objects=objects,
                   object_kinds=kinds, cam=cam,
                   source_cfg=_domain_cfg_from(header["source_config"]),
                   target_cfg=_domain_cfg_from(header["target_config"]),
                   seed=header["seed"], meta=meta)
