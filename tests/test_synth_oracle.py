"""Bit-for-bit oracle for the batched observation synthesizer.

``reference_observation`` and ``reference_scalar_observation`` build one
observation from one pose, as the package did before its synthesizer was
batched.  Every row of a generated dataset must have exactly their bits,
and a row synthesized alone must equal the same row inside its stack.
The synthesizer seeds all rows' noise streams at once; each row's stream
must be the one ``SeedSequence([seed, digest])`` seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseadapt import synth
from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import CameraIntrinsics, Pose
from poseadapt.synth import (
    evaluation_access,
    make_dataset,
    make_domain_config,
    make_object,
    make_scalar_task,
    raw_observation,
    synthesize,
)

from helpers import (
    SAMPLE_RANGES,
    random_rotations,
    reference_observation,
    reference_scalar_observation,
)

CAM = CameraIntrinsics(fx=600.0, fy=600.0)
OBJECTS = [make_object(kind, seed=i, n_points=n)
           for i, (kind, n) in enumerate([("box", 48), ("cylinder", 33), ("blob", 64)])]
# a depth where libm pow and a product give different squares of s - 0.75
POW_DEPTH = 0.6562978235505856


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view("<u8"), want.view("<u8"))


def domains(dropout):
    return (make_domain_config(0.0, 0.02, 0.0, seed=4),
            make_domain_config(0.8, 0.05, dropout, seed=5))


def test_pose_dataset_matches_the_per_pose_reference():
    ds = make_dataset(40, 23, OBJECTS, CAM, *domains(dropout=0.3), seed=2,
                      sample_ranges=SAMPLE_RANGES)
    assert np.count_nonzero(ds.target.observation == 0.0) > 0
    with evaluation_access():
        for split, dc in zip((ds.source, ds.target), domains(dropout=0.3)):
            want = np.stack([reference_observation(split.gt_pose[i], OBJECTS[i % len(OBJECTS)],
                                                   CAM, dc) for i in range(len(split))])
            assert_bits_equal(split.observation, want)


def test_scalar_task_matches_the_per_pose_reference():
    ds = make_scalar_task(300, 120, *domains(dropout=0.0), seed=3)
    with evaluation_access():
        for split, dc in zip((ds.source, ds.target), domains(dropout=0.0)):
            want = np.stack([reference_scalar_observation(split.gt_pose[i], dc)
                             for i in range(len(split))])
            assert_bits_equal(split.observation, want)


def scalar_poses(depths):
    translation = np.zeros((len(depths), 3))
    translation[:, 2] = depths
    return Pose(np.tile(np.eye(3), (len(depths), 1, 1)), translation)


@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_scalar_stack_keeps_the_pow_square(dropout):
    s = POW_DEPTH - 0.75
    assert s ** 2 != s * s          # the depth tells the two squares apart
    depths = np.concatenate([[POW_DEPTH], np.random.default_rng(8).uniform(0.5, 1.0, 50)])
    poses = scalar_poses(depths)
    for dc in domains(dropout):
        got = synthesize(synth._scalar_raw(poses.z), poses, dc)
        want = np.stack([reference_scalar_observation(poses[i], dc) for i in range(len(poses))])
        assert_bits_equal(got, want)


@pytest.mark.parametrize("task", ["pose", "scalar"])
def test_a_row_alone_equals_the_row_in_its_stack(task):
    rng = np.random.default_rng(11)
    n = 17
    if task == "pose":
        translation = np.stack([rng.uniform(-0.1, 0.1, n), rng.uniform(-0.1, 0.1, n),
                                rng.uniform(0.6, 1.5, n)], axis=1)
        poses = Pose(random_rotations(n, rng), translation)

        def raw(p):
            return raw_observation(p, OBJECTS[2], CAM)
    else:
        poses = scalar_poses(np.append(rng.uniform(0.5, 1.0, n - 1), POW_DEPTH))

        def raw(p):
            return synth._scalar_raw(p.z)
    dc = domains(dropout=0.3)[1]
    stack = synthesize(raw(poses), poses, dc)
    for i in range(n):
        assert_bits_equal(synthesize(raw(poses[i:i + 1]), poses[i:i + 1], dc)[0], stack[i])


# domain seeds of one to five 32-bit words; past four the entropy outgrows the pool
SEEDS = [0, 7, 2 ** 32 + 4, 2 ** 64 + 5, 2 ** 128 + 3]
# digests of one word (the high word zero, or 0 itself) and of two
DIGESTS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from(SEEDS), digests=st.lists(DIGESTS, max_size=6))
def test_bulk_seeding_equals_a_seed_sequence_per_row(seed, digests):
    """Each row's PCG64 state, and its first normal and uniform draws from
    the reused generator, equal those of a generator seeded alone."""
    states = list(synth._pcg64_states(seed, np.array(digests, dtype=np.uint64)))
    assert len(states) == len(digests)
    bits = np.random.PCG64(0)
    rng, pcg = np.random.Generator(bits), bits.state
    for digest, (state, inc) in zip(digests, states):
        want = np.random.PCG64(np.random.SeedSequence([seed, digest]))
        assert want.state["state"] == {"state": state, "inc": inc}
        pcg["state"] = {"state": state, "inc": inc}
        bits.state = pcg
        alone = np.random.Generator(want)
        assert_bits_equal(rng.standard_normal(5), alone.standard_normal(5))
        assert_bits_equal(rng.random(5), alone.random(5))


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from(SEEDS), depths=st.lists(st.floats(0.5, 1.0), max_size=5),
       dropout=st.sampled_from([0.0, 0.4]))
def test_a_stack_under_any_seed_matches_the_per_pose_reference(seed, depths, dropout):
    poses = scalar_poses(np.array(depths, dtype=float))
    dc = make_domain_config(0.8, 0.05, dropout, seed=seed)
    got = synthesize(synth._scalar_raw(poses.z), poses, dc)
    want = [reference_scalar_observation(poses[i], dc) for i in range(len(poses))]
    assert_bits_equal(got, np.array(want).reshape(len(poses), synth.OBS_DIM))


def test_a_negative_domain_seed_is_refused():
    poses = scalar_poses(np.array([0.7]))
    with pytest.raises(InvalidArgumentError):
        synthesize(synth._scalar_raw(poses.z), poses, make_domain_config(seed=-1))
