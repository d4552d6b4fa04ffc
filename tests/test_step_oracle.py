"""Bit-for-bit oracle for the training step.

``OracleAdam`` updates one parameter at a time, as the package did before
its update was fused over flat buffers.  The fused ``Adam`` must leave
exactly the same parameters after every step, on the networks the
pipeline trains, including parameters that get no gradient.
"""

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.config import config_from_dict
from poseadapt.experiment import (
    build_anchors,
    build_camera,
    build_network_config,
    build_objective,
)
from poseadapt.losses import prepare_batch_supervision, total_objective
from poseadapt.network import Adam, PoseNetwork
from poseadapt.synth import OBS_DIM, make_dataset, make_domain_config, make_object, make_scalar_task

from helpers import SAMPLE_RANGES, OracleAdam

CFG = config_from_dict({"network": {"feature_dim": 16, "encoder_hidden": [32], "head_hidden": 8}})
STEPS = 30
BATCH = 8


def pipeline_setup(stage, scalar, kind="cylinder"):
    """A network of the pipeline, and ``loss(net, step, obs=None)``: the
    stage's objective on the step's batch of one object's source split
    (with ``obs`` in place of the batch's observations, if given)."""
    dc = make_domain_config(0.0, 0.02, 0.0, seed=1)
    if scalar:
        ds = make_scalar_task(40, 1, dc, dc, seed=0)
    else:
        ds = make_dataset(40, 1, [make_object(kind, seed=1, n_points=16)], build_camera(CFG),
                          dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors = build_anchors(CFG, scalar=scalar, single=stage == "baseline-regression")
    net = PoseNetwork(build_network_config(CFG, OBS_DIM, anchors, scalar=scalar), seed=0)
    objective = build_objective(CFG, anchors, stage)
    sup = prepare_batch_supervision(ds.source.gt_pose, anchors, ds.cam, objective,
                                    branches=tuple(net.config.branches()))

    def loss(on, step, obs=None):
        rows = np.arange(step * BATCH, (step + 1) * BATCH) % len(sup)
        out = on.forward(ds.source.observation[rows] if obs is None else obs)
        return total_objective(out, sup[rows], anchors, ds.objects[0], ds.cam, objective).total

    return net, loss


def assert_fused_matches_oracle(params, loss, twin_params, twin_loss, lr=1e-3):
    """Step ``Adam`` on ``params`` and ``OracleAdam`` on equal
    ``twin_params``; each side's ``loss(step)`` builds its step's loss."""
    fused, oracle = Adam(params, lr=lr), OracleAdam(twin_params, lr=lr)
    for step in range(STEPS):
        for ps, make_loss, opt in ((params, loss, fused), (twin_params, twin_loss, oracle)):
            make_loss(step).backward()
            opt.step()
            for p in ps.values():
                p.grad = None
        for k, p in params.items():
            assert np.array_equal(p.data, twin_params[k].data), (step, k)


@pytest.mark.parametrize("stage, scalar", [("baseline-regression", False), ("teacher", True)],
                         ids=["pose-baseline-regression", "scalar-teacher"])
def test_fused_adam_matches_the_oracle_on_a_network(stage, scalar):
    net, loss = pipeline_setup(stage, scalar)
    twin = net.copy()
    if stage == "baseline-regression":
        # without the classification term the classifier heads get no gradient
        loss(net, 0).backward()
        assert [k for k, p in net.parameters().items() if p.grad is None] == \
            [k for k in net.parameters() if k.startswith("cls.")]
        net.zero_grad()
    assert_fused_matches_oracle(net.parameters(), lambda step: loss(net, step),
                                twin.parameters(), lambda step: loss(twin, step))


def test_fused_adam_matches_the_oracle_on_a_parameter_used_unused_and_used_again():
    rng = np.random.default_rng(0)
    target = rng.standard_normal((3, 4))
    start = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}

    def build(ps):
        def loss(step):
            pred = ps["w"] if 10 <= step < 20 else ad.add(ps["w"], ps["b"])
            diff = ad.add(pred, -target)
            return ad.tsum(ad.mul(diff, diff))
        return ps, loss

    assert_fused_matches_oracle(*build({k: ad.parameter(a) for k, a in start.items()}),
                                *build({k: ad.parameter(a) for k, a in start.items()}))


def test_loaded_parameters_stay_the_optimizers():
    """``load_state_arrays`` writes into the optimizer's buffer, so a
    later step still moves the network."""
    net, loss = pipeline_setup("teacher", scalar=True)
    state = net.state_arrays()
    opt = Adam(net.parameters(), lr=1e-3)
    for _ in range(2):
        net.load_state_arrays(state)
        assert all(np.array_equal(p.data, state[k]) for k, p in net.parameters().items())
        loss(net, 0).backward()
        opt.step()
        net.zero_grad()
        assert any(not np.array_equal(p.data, state[k]) for k, p in net.parameters().items())


def test_observations_get_no_gradient():
    """The observation batch is a constant: the tape prunes it, so the
    first encoder layer computes no gradient for it."""
    net, loss = pipeline_setup("teacher", scalar=False, kind="box")
    obs = ad.Tensor(np.random.default_rng(0).standard_normal((BATCH, OBS_DIM)))
    loss(net, 0, obs).backward()
    assert obs.grad is None
    assert all(p.grad is not None for p in net.parameters().values())
