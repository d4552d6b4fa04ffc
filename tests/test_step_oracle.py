"""Bit-for-bit oracle for the training step.

``OracleAdam`` updates one parameter at a time, as the package did before
its update was fused over flat buffers.  The fused ``Adam`` must leave
exactly the same parameters after every step, on the networks the
pipeline trains.  That includes heads that get no gradient in a step:
their block of the gradient buffer must read zero, not the scratch values
the fused step before left there.
"""

import numpy as np
import pytest

from poseadapt.config import config_from_dict
from poseadapt.experiment import STAGES, build_camera, build_stage
from poseadapt.losses import prepare_batch_supervision, total_objective
from poseadapt.network import Adam, PoseNetwork
from poseadapt.synth import make_dataset, make_object, make_scalar_task

from helpers import SAMPLE_RANGES, OracleAdam, named_gradients

CFG = config_from_dict({"network": {"feature_dim": 16, "encoder_hidden": [32], "head_hidden": 8}})
STEPS = 30
BATCH = 8


def pipeline_setup(stage, scalar, kind="cylinder"):
    """A network of the pipeline, and ``loss(net, step, stage=stage)``: a
    stage's objective, over the network's anchors, on the step's batch of
    one object's source split."""
    dc = (0.0, 0.02, 0.0)
    if scalar:
        ds = make_scalar_task(40, 1, dc, dc, seed=0)
    else:
        ds = make_dataset(40, 1, [make_object(kind, seed=1, n_points=16)], build_camera(CFG),
                          dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors, net_cfg, objective = build_stage(CFG, ds, stage)
    net = PoseNetwork(net_cfg, seed=0)
    sup = prepare_batch_supervision(ds.source.gt_pose, anchors, ds.cam, objective,
                                    branches=tuple(net.config.branches()))
    # every stage's objective; the baseline's has no correlation term, so
    # its one-bin depth graph is never read beside these anchors
    objectives = {s: build_stage(CFG, ds, s)[2] for s in STAGES}

    def loss(on, step, stage=stage):
        rows = np.arange(step * BATCH, (step + 1) * BATCH) % len(sup)
        return total_objective(on.forward(ds.source.observation[rows]), sup[rows], anchors,
                               ds.objects[0], ds.cam, objectives[stage]).total

    return net, loss


def classifier_parameters(net):
    return {k for k in net.parameters() if k.startswith("cls.")}


def assert_fused_matches_oracle(net, loss, unused=lambda step: set(), lr=1e-3):
    """Step ``Adam`` on ``net`` and ``OracleAdam`` on a copy, each after
    its own backward of ``loss(net, step)``; the oracle takes the
    parameters named by ``unused(step)`` as getting no gradient."""
    twin = net.copy()
    fused, oracle = Adam(net.flat, net.grad_buffer(), lr=lr), OracleAdam(twin.parameters(), lr=lr)
    for step in range(STEPS):
        loss(net, step).backward()
        fused.step()
        loss(twin, step).backward()
        oracle.step({k: None if k in unused(step) else g
                     for k, g in named_gradients(twin).items()})
        for k, p in net.parameters().items():
            assert np.array_equal(p, twin.parameters()[k]), (step, k)


@pytest.mark.parametrize("stage, scalar", [("baseline-regression", False), ("teacher", True)],
                         ids=["pose-baseline-regression", "scalar-teacher"])
def test_fused_adam_matches_the_oracle_on_a_network(stage, scalar):
    net, loss = pipeline_setup(stage, scalar)
    unused = set()
    if stage == "baseline-regression":
        # without the classification term the classifier heads get no
        # gradient: a zero block in the buffer
        probe = net.copy()
        loss(probe, 0).backward()
        unused = {k for k, g in named_gradients(probe).items() if not g.any()}
        assert unused == classifier_parameters(net)
    assert_fused_matches_oracle(net, loss, lambda step: unused)


def test_fused_adam_matches_the_oracle_on_a_parameter_used_unused_and_used_again():
    """Teacher steps, then baseline-regression steps, which leave the
    classifier heads without a gradient, then teacher steps again."""
    net, loss = pipeline_setup("teacher", scalar=False)

    def middle(step):
        return 10 <= step < 20

    assert_fused_matches_oracle(
        net, lambda on, step: loss(on, step, "baseline-regression" if middle(step) else "teacher"),
        lambda step: classifier_parameters(net) if middle(step) else set())


def test_loaded_parameters_stay_the_optimizers():
    """Parameters written back in place stay views of the optimizer's
    buffer, so a later step still moves the network."""
    net, loss = pipeline_setup("teacher", scalar=True)
    state = net.state_arrays()
    opt = Adam(net.flat, net.grad_buffer(), lr=1e-3)
    for _ in range(2):
        for k, p in net.parameters().items():
            p[...] = state[k]
        assert all(np.array_equal(p, state[k]) for k, p in net.parameters().items())
        loss(net, 0).backward()
        opt.step()
        assert any(not np.array_equal(p, state[k]) for k, p in net.parameters().items())


def test_observations_get_no_gradient(monkeypatch):
    """The observation batch is a constant: the encoder's backward
    computes no gradient for it, and every parameter still gets one."""
    net, loss = pipeline_setup("teacher", scalar=False, kind="box")
    returned, backward = [], net.encoder.backward

    def spy(inputs, g, input_grad=True):
        returned.append(backward(inputs, g, input_grad))
        return returned[-1]

    monkeypatch.setattr(net.encoder, "backward", spy)
    loss(net, 0).backward()
    assert returned == [None]
    assert all(g.any() for g in named_gradients(net).values())
