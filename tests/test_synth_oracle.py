"""Bit-for-bit oracle for the deterministic half of the batched observation
synthesizer.

``reference_observation`` and ``reference_scalar_observation`` build one
observation from one pose and a domain's offset, as the package did before
its synthesizer was batched: the embedding, the libm ``pow`` square and the
offset.  At zero noise and zero dropout, every row of a generated dataset
must have exactly their bits, and a row synthesized alone must equal the
same row inside its stack.  ``test_synth.TestSeedTree`` checks the noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseadapt import synth
from poseadapt.geometry import CameraIntrinsics, Pose
from poseadapt.synth import (
    SOURCE_NOISE,
    TARGET_NOISE,
    evaluation_access,
    make_dataset,
    make_domain_config,
    make_object,
    make_scalar_task,
    raw_observation,
    seed_node,
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
# each split's offset norm, with no noise and no dropout
OFFSETS = (0.0, 0.8)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view("<u8"), want.view("<u8"))


def domains(seed):
    """The noiseless domain configs that the dataset of ``seed`` draws from
    its source and target noise streams."""
    return [make_domain_config(np.random.default_rng(seed_node(seed, role)), offset)
            for role, offset in zip((SOURCE_NOISE, TARGET_NOISE), OFFSETS)]


def test_pose_dataset_matches_the_per_pose_reference():
    ds = make_dataset(40, 23, OBJECTS, CAM, *((o, 0.0, 0.0) for o in OFFSETS), seed=2,
                      sample_ranges=SAMPLE_RANGES)
    with evaluation_access():
        for split, dc in zip((ds.source, ds.target), domains(2)):
            want = np.stack([reference_observation(split.gt_pose[i], OBJECTS[i % len(OBJECTS)],
                                                   CAM, dc) for i in range(len(split))])
            assert_bits_equal(split.observation, want)


def test_scalar_task_matches_the_per_pose_reference():
    ds = make_scalar_task(300, 120, *((o, 0.0, 0.0) for o in OFFSETS), seed=3)
    with evaluation_access():
        for split, dc in zip((ds.source, ds.target), domains(3)):
            want = np.stack([reference_scalar_observation(split.gt_pose[i], dc)
                             for i in range(len(split))])
            assert_bits_equal(split.observation, want)


def scalar_poses(depths):
    translation = np.zeros((len(depths), 3))
    translation[:, 2] = depths
    return Pose(np.tile(np.eye(3), (len(depths), 1, 1)), translation)


def observe(raw, poses, dc):
    return synthesize(raw, poses, dc, np.random.default_rng(0))


@pytest.mark.parametrize("offset", [0.0, 0.4])
def test_scalar_stack_keeps_the_pow_square(offset):
    s = POW_DEPTH - 0.75
    assert s ** 2 != s * s          # the depth tells the two squares apart
    depths = np.concatenate([[POW_DEPTH], np.random.default_rng(8).uniform(0.5, 1.0, 50)])
    poses = scalar_poses(depths)
    dc = make_domain_config(np.random.default_rng(1), offset)
    got = observe(synth._scalar_raw(poses.z), poses, dc)
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
    dc = domains(5)[1]
    stack = observe(raw(poses), poses, dc)
    for i in range(n):
        assert_bits_equal(observe(raw(poses[i:i + 1]), poses[i:i + 1], dc)[0], stack[i])


# run seeds of one to five 32-bit words
SEEDS = [0, 7, 2 ** 32 + 4, 2 ** 64 + 5, 2 ** 128 + 3]


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from(SEEDS), depths=st.lists(st.floats(0.5, 1.0), max_size=5))
def test_a_stack_under_any_seed_matches_the_per_pose_reference(seed, depths):
    """The offset that the target noise stream of any run seed draws is
    added with the reference's bits."""
    poses = scalar_poses(np.array(depths, dtype=float))
    dc = domains(seed)[1]
    got = observe(synth._scalar_raw(poses.z), poses, dc)
    want = [reference_scalar_observation(poses[i], dc) for i in range(len(poses))]
    assert_bits_equal(got, np.array(want).reshape(len(poses), synth.OBS_DIM))
