"""Config parsing under fuzzed JSON input: only ConfigError escapes, and an
accepted config holds non-negative seeds, finite numbers and a train
section in range."""

import sys
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseadapt.config import _SECTION_TYPES, RunConfig, config_from_dict
from poseadapt.errors import ConfigError

JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))
ANY_JSON = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5)
                        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                        max_leaves=8)


def like(default):
    """Values shaped like a field default (often valid), or any JSON."""
    if isinstance(default, bool):
        typed = st.booleans()
    elif isinstance(default, int):
        typed = st.integers(min_value=-5, max_value=60)
    elif isinstance(default, float):
        typed = (st.floats() | st.integers(min_value=-3, max_value=3)
                 | st.integers(min_value=2 ** 1024))   # beyond float range
    elif isinstance(default, tuple) and default:
        n = len(default)
        typed = st.lists(like(default[0]), min_size=max(n - 1, 0), max_size=n + 1)
    else:
        typed = st.just(default) | st.text(max_size=8)
    return st.one_of(typed, typed, ANY_JSON)


def _default(f):
    return f.default_factory() if f.default is MISSING else f.default


# (section or None, key, default) of every configurable field
FIELDS = [(name, f.name, _default(f)) for name, cls in _SECTION_TYPES.items()
          for f in fields(cls)]
FIELDS += [(None, f.name, _default(f)) for f in fields(RunConfig)
           if f.name not in _SECTION_TYPES]


@st.composite
def configs(draw):
    """A few fields set to fuzzed values, sometimes with a whole section or
    an unknown key replaced by arbitrary JSON."""
    raw = draw(st.dictionaries(st.sampled_from(list(_SECTION_TYPES) + ["bogus"]),
                               ANY_JSON, max_size=1))
    for section, key, default in draw(st.lists(st.sampled_from(FIELDS), max_size=4,
                                                unique=True)):
        value = draw(like(default))
        if section is None:
            raw[key] = value
        elif isinstance(raw.setdefault(section, {}), dict):
            raw[section][key] = value
    return raw


def values(cfg):
    """(name, value) of every field of the run config and its sections."""
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in _SECTION_TYPES:
            yield from ((f"{f.name}.{g.name}", getattr(value, g.name)) for g in fields(value))
        else:
            yield f.name, value


@settings(max_examples=200, deadline=None)
@given(configs())
def test_config_from_dict_rejects_with_config_error_only(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    for name, value in values(cfg):
        if name.endswith("seed"):
            assert value >= 0, name
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (int, float)):     # finite, and an int converts to float
                assert abs(v) <= sys.float_info.max, name
    for name, value in values(cfg):
        if name.endswith("_noise"):
            assert value >= 0, name
        if name.endswith("_dropout"):
            assert 0 <= value <= 1, name
    t = cfg.train
    assert t.teacher_epochs >= 0 and t.student_epochs >= 0 and t.rounds >= 0
    assert t.lr_teacher > 0 and t.lr_student > 0 and t.batch_size >= 1
    assert 0 < t.tau_end <= t.tau_start <= 1


@pytest.mark.parametrize("train", [
    {"tau_start": 0.1, "tau_end": 0.5},
    {"tau_end": 0.0},
    {"tau_start": 1.5},
    {"rounds": -1},
    {"batch_size": 0},
], ids=lambda train: "-".join(f"{k}={v}" for k, v in train.items()))
def test_schedule_ranges_are_checked(train):
    """The threshold schedule and batch checks; ``test_cli.BAD_CONFIGS``
    has the epoch and learning-rate cases."""
    with pytest.raises(ConfigError, match="train"):
        config_from_dict({"train": train})


@pytest.mark.parametrize("raw", [
    {"data": {"source_noise": -1}},
    {"data": {"target_noise": -0.01}},
    {"scalar_task": True, "data": {"scalar_target_noise": -1}},
    {"data": {"scalar_source_noise": -2}},
    {"data": {"target_dropout": 1.5}},
    {"data": {"source_dropout": -0.1}},
], ids=lambda raw: "-".join(f"{k}={v}" for k, v in raw["data"].items()))
def test_noise_and_dropout_ranges_are_checked(raw):
    """Noise scales are >= 0 and dropouts in [0, 1], checked before any
    file is written."""
    with pytest.raises(ConfigError, match=f"data.{next(iter(raw['data']))}"):
        config_from_dict(raw)
