"""Run configuration: one JSON file drives a reproducible experiment.

Each section of a ``RunConfig`` is defined once, and only its class states
the defaults:

- ``scores`` is ``labeling.ScoreConfig``, the objective's labels;
- ``train`` is ``selftrain.TrainConfig``, read by the training loops;
- ``anchors``, ``network`` and ``data`` are defined here; ``experiment``
  passes their values to ``geometry.AnchorSet.build``,
  ``network.NetworkConfig`` and the ``synth`` generators.

Defaults follow the published hyperparameters of the pose-estimation
setup this package implements: 60 rotation anchors, 20/20/40 bins for
v_x/v_y/z over [-200, 200] pixels and [0, 2] meters, sparse-label
parameters (0.7, 0.1, k=4) for rotation and (0.55, 0.075, k=7) for
translation, Adam with learning rates 3e-4 (teacher) and 3e-5 (student),
batch size 32.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import ConfigError, InvalidArgumentError
from .labeling import ScoreConfig
from .selftrain import TrainConfig
from .synth import OBJECT_KINDS


@dataclass(frozen=True)
class AnchorConfig:
    n_rot: int = 60
    n_vx: int = 20
    n_vy: int = 20
    n_z: int = 40
    vx_range: tuple = (-200.0, 200.0)
    vy_range: tuple = (-200.0, 200.0)
    z_range: tuple = (0.0, 2.0)
    seed: int = 0


@dataclass(frozen=True)
class NetConfig:
    feature_dim: int = 128
    encoder_hidden: tuple = (128, 128)
    head_hidden: int = 64


@dataclass(frozen=True)
class DataConfig:
    n_source: int = 2000
    n_target: int = 1000
    object_kinds: tuple = OBJECT_KINDS
    n_points: int = 128
    object_seed: int = 7
    camera: tuple = (600.0, 600.0)   # fx, fy
    source_offset: float = 0.0
    source_noise: float = 0.02
    source_dropout: float = 0.0
    target_offset: float = 0.8
    target_noise: float = 0.06
    target_dropout: float = 0.02
    vx_sample_range: tuple = (-160.0, 160.0)
    vy_sample_range: tuple = (-160.0, 160.0)
    z_sample_range: tuple = (0.4, 1.6)
    scalar_source_noise: float = 0.01
    scalar_target_noise: float = 0.02
    scalar_target_offset: float = 0.7
    scalar_bins: int = 20


@dataclass(frozen=True)
class RunConfig:
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    scores: ScoreConfig = field(default_factory=ScoreConfig)
    network: NetConfig = field(default_factory=NetConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    scalar_task: bool = False
    out_dir: str = "runs/out"
    data_path: str = None                 # defaults to <out_dir>/dataset.txt

    def dataset_path(self):
        return self.data_path or f"{self.out_dir}/dataset.txt"


# section name -> its class; the other RunConfig fields are plain values
_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)
                  if f.default_factory is not MISSING}


def _coerce(cls, d):
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def config_from_dict(d) -> RunConfig:
    d = dict(d)
    kw = {}
    for name, cls in _SECTION_TYPES.items():
        section = d.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        kw[name] = _coerce(cls, section)
    unknown = set(d) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kw.update(d)
    cfg = RunConfig(**kw)
    validate_config(cfg)
    return cfg


# tuple fields of free length; every other tuple keeps its default's length
_FREE_LENGTH = {"object_kinds", "encoder_hidden"}


def _matches(value, default, free_length=False):
    """Whether ``value`` has the JSON type of the field default ``default``."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and (free_length or len(value) == len(default))
                and all(_matches(v, default[min(i, len(default) - 1)])
                        for i, v in enumerate(value)))
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if default is None:                    # data_path: unset or a path
        return value is None or isinstance(value, str)
    return isinstance(value, type(default))


def _check_types(cfg: RunConfig):
    sections = [("", cfg)] + [(f"{name}.", getattr(cfg, name)) for name in _SECTION_TYPES]
    for prefix, section in sections:
        for f in fields(section):
            value = getattr(section, f.name)
            if f.default is not MISSING and not _matches(value, f.default,
                                                         f.name in _FREE_LENGTH):
                raise ConfigError(f"{prefix}{f.name} has the wrong type or length: "
                                  f"{value!r} (default {f.default!r})")
            items = value if isinstance(value, tuple) else (value,)
            if not all(abs(v) <= sys.float_info.max for v in items
                       if isinstance(v, (int, float))):
                raise ConfigError(f"{prefix}{f.name} must be finite: {value!r}")


def validate_config(cfg: RunConfig):
    """Check every field against module invariants before any computation."""
    _check_types(cfg)
    a = cfg.anchors
    if min(cfg.seed, a.seed, cfg.data.object_seed) < 0:
        raise ConfigError("seed, anchors.seed and data.object_seed must be >= 0")
    if a.n_rot < 1 or a.n_vx < 1 or a.n_vy < 1 or a.n_z < 1:
        raise ConfigError("anchor counts must be positive")
    for lo, hi, name in ((a.vx_range + ("vx_range",)), (a.vy_range + ("vy_range",)),
                         (a.z_range + ("z_range",))):
        if not hi > lo:
            raise ConfigError(f"anchors.{name} must be increasing")
    if a.z_range[0] < 0:
        raise ConfigError("anchors.z_range must start at a depth >= 0")
    try:
        k_rot, k_t = cfg.scores.branch("rot").k, cfg.scores.branch("z").k
    except InvalidArgumentError as e:
        raise ConfigError(f"invalid score assignment: {e}") from e
    d = cfg.data
    if k_rot > a.n_rot or k_t > min(a.n_vx, a.n_vy, a.n_z) \
            or (cfg.scalar_task and k_t > d.scalar_bins):
        raise ConfigError("a score k exceeds the anchor count of its branch")
    for f in fields(d):
        value = getattr(d, f.name)
        if f.name.endswith("_noise") and value < 0:
            raise ConfigError(f"data.{f.name} must be >= 0")
        if f.name.endswith("_dropout") and not 0.0 <= value <= 1.0:
            raise ConfigError(f"data.{f.name} must be in [0, 1]")
    if d.n_source < 1 or d.n_target < 1:
        raise ConfigError("dataset sizes must be positive")
    if d.n_points < 4:
        raise ConfigError("object models need at least 4 points")
    if not d.object_kinds:
        raise ConfigError("data.object_kinds must name at least one object")
    for kind in d.object_kinds:
        if kind not in OBJECT_KINDS:
            raise ConfigError(f"unknown object kind {kind!r}")
    if not (d.z_sample_range[0] > 0 and d.z_sample_range[1] <= a.z_range[1]
            and d.z_sample_range[0] >= a.z_range[0]):
        raise ConfigError("z sample range must be positive and inside the anchor range")
    if min(d.camera) <= 0:
        raise ConfigError("focal lengths must be positive")
    t = cfg.train
    if not 0.0 < t.tau_end <= t.tau_start <= 1.0:
        raise ConfigError("train needs 0 < tau_end <= tau_start <= 1")
    if min(t.rounds, t.teacher_epochs, t.student_epochs) < 0:
        raise ConfigError("train.rounds and the epoch counts must be >= 0")
    if not min(t.lr_teacher, t.lr_student) > 0:
        raise ConfigError("train learning rates must be positive")
    if t.batch_size < 1:
        raise ConfigError("train.batch_size must be >= 1")
    if t.ctc_weight < 0:
        raise ConfigError("ctc_weight must be >= 0")
    n = cfg.network
    if min(n.feature_dim, n.head_hidden, *n.encoder_hidden) < 1:
        raise ConfigError("network sizes must be positive")


def load_config(path, overrides=None) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:               # invalid JSON or invalid UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        raw.update(overrides)
    return config_from_dict(raw)


def save_config(path, cfg: RunConfig):
    """Capture the full effective configuration for provenance."""
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
