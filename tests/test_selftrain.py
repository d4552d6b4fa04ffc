"""Self-training: threshold schedule, selection, and the student loop."""

import gc

import numpy as np
import pytest

from poseadapt import selftrain
from poseadapt.config import config_from_dict
from poseadapt.experiment import build_camera, build_stage
from poseadapt.errors import InvalidArgumentError, TrainingFailureError
from poseadapt.geometry import AnchorSet, generate_translation_bins
from poseadapt.labeling import ScoreConfig
from poseadapt.losses import ObjectiveConfig, build_target_graph
from poseadapt.metrics import confidence_scores, predict_poses
from poseadapt.network import Adam, HeadOutput, NetworkConfig, PoseNetwork
from poseadapt.selftrain import (
    TrainConfig,
    select_samples,
    threshold_schedule,
    train_student,
    train_supervised,
)
from poseadapt.synth import OBS_DIM, make_dataset, make_object, make_scalar_task

from helpers import SAMPLE_RANGES


class TestThresholdSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = TrainConfig(tau_start=0.5, tau_end=0.1, rounds=5)
        assert threshold_schedule(0, cfg) == 0.5
        assert threshold_schedule(2, cfg) == pytest.approx(0.3)
        assert threshold_schedule(4, cfg) == pytest.approx(0.1)

    def test_single_round_uses_the_start_threshold(self):
        for rounds in (0, 1):
            cfg = TrainConfig(tau_start=0.5, tau_end=0.1, rounds=rounds)
            assert threshold_schedule(0, cfg) == 0.5

    def test_round_out_of_range(self):
        cfg = TrainConfig(rounds=3)
        for r in (-1, 3):
            with pytest.raises(InvalidArgumentError):
                threshold_schedule(r, cfg)


class TestSelectSamples:
    def test_threshold_is_strict(self):
        chosen = select_samples(np.array([0.2, 0.3, 0.5, 0.3]), 0.3)
        np.testing.assert_array_equal(chosen, [2])

    def test_order_kept(self):
        chosen = select_samples(np.array([0.9, 0.2, 0.7]), 0.1)
        np.testing.assert_array_equal(chosen, [0, 1, 2])

    def test_none_selected(self):
        chosen = select_samples(np.array([0.1, 0.2]), 0.5)
        assert len(chosen) == 0 and chosen.dtype.kind == "i"

    def test_tau_range(self):
        with pytest.raises(InvalidArgumentError):
            select_samples(np.array([0.5]), 1.5)

    def test_float32_confidence_is_gated_against_the_configured_tau(self):
        """Confidences leave the float32 network as float64, so a max
        probability of exactly float32(0.1), 0.10000000149, clears tau 0.1.
        Compared in float32, tau would round to that same value."""
        out = HeadOutput(probs={"z": np.array([[0.1, 0.05]], dtype=np.float32)},
                         residuals={}, feature=None)
        confidence = confidence_scores(out)["z"]
        assert confidence.dtype == np.float64
        np.testing.assert_array_equal(select_samples(confidence, 0.1), [0])


def scalar_setup():
    """A small scalar task, its one-branch anchors, an untrained teacher
    and a CTC-free objective."""
    ds = make_scalar_task(8, 4, (0.0, 0.01, 0.0), (0.7, 0.02, 0.0), seed=0)
    anchors = AnchorSet(rotations=np.eye(3)[None], bins_vx=np.zeros(1),
                        bins_vy=np.zeros(1), bins_z=generate_translation_bins(0.5, 1.0, 4),
                        z_range=(0.5, 1.0))
    teacher = PoseNetwork(NetworkConfig(obs_dim=OBS_DIM, n_rot=0, n_vx=0, n_vy=0, n_z=4,
                                        feature_dim=8, encoder_hidden=(8,), head_hidden=4),
                          seed=0)
    t = (0.6, 0.2, 3)
    objective = ObjectiveConfig(labels=ScoreConfig(t, t), use_cls=True, ctc_weight=0.0,
                                target_graph=build_target_graph(anchors.bins_z, 0.5, 1.0))
    return ds, anchors, teacher, objective


def split_arrays(ds):
    """Source observations and poses, and target observations."""
    return ds.source.observation, ds.source.gt_pose, ds.target.observation


def record_training_sets(monkeypatch):
    """Observations and poses of every train_supervised call."""
    calls = []
    original = selftrain.train_supervised

    def recording(net, optimizer, obs, poses, *args):
        calls.append((obs, poses))
        return original(net, optimizer, obs, poses, *args)

    monkeypatch.setattr(selftrain, "train_supervised", recording)
    return calls


def test_empty_selection_round_trains_on_source_only(monkeypatch):
    ds, anchors, teacher, objective = scalar_setup()
    # a confidence is a probability, so none can exceed tau = 1
    cfg = TrainConfig(tau_start=1.0, tau_end=1.0, rounds=1, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    source_obs, source_poses, target_obs = split_arrays(ds)
    before = teacher.state_arrays()
    student, rounds = train_student(teacher, source_obs, source_poses, target_obs, anchors,
                                    ds.objects[0], ds.cam, objective, cfg, seed=0)
    assert len(rounds) == 1
    assert len(rounds[0].confidence) == len(rounds[0].poses) == 4
    assert len(rounds[0].selected) == 0
    assert [(len(obs), len(poses)) for obs, poses in calls] == [(8, 8)]
    after = student.state_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_selected_rows_join_the_source_with_their_pseudo_poses(monkeypatch):
    ds, anchors, teacher, objective = scalar_setup()
    cfg = TrainConfig(tau_start=0.3, tau_end=0.2, rounds=2, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    source_obs, source_poses, target_obs = split_arrays(ds)
    before = teacher.copy()
    _, rounds = train_student(teacher, source_obs, source_poses, target_obs, anchors,
                              ds.objects[0], ds.cam, objective, cfg, seed=0)
    assert [r.round_index for r in rounds] == [0, 1]
    assert sum(len(r.selected) for r in rounds) > 0
    for r, (obs, poses) in zip(rounds, calls):
        assert len(r.poses) == len(r.confidence) == 4
        np.testing.assert_array_equal(r.selected, np.flatnonzero(r.confidence > r.tau))
        assert len(obs) == len(poses) == 8 + len(r.selected)
        np.testing.assert_array_equal(obs, np.concatenate([source_obs, target_obs[r.selected]]))
        np.testing.assert_array_equal(poses.rotation[8:], r.poses.rotation[r.selected])
        np.testing.assert_array_equal(poses.translation[:8], source_poses.translation)
        np.testing.assert_array_equal(poses.translation[8:], r.poses.translation[r.selected])
    # the first round's labels come from the teacher
    want_poses, want_conf = selftrain.pseudo_label(before, target_obs, anchors, ds.cam)
    np.testing.assert_array_equal(rounds[0].poses.z, want_poses.z)
    np.testing.assert_array_equal(rounds[0].confidence, want_conf)


def test_student_is_the_teacher_network_adapted_in_place():
    """``train_student`` trains the network it is handed and returns it;
    round 0 is labelled by that network before any student step."""
    ds, anchors, teacher, objective = scalar_setup()
    cfg = TrainConfig(tau_start=0.3, tau_end=0.2, rounds=2, student_epochs=1)
    source_obs, source_poses, target_obs = split_arrays(ds)
    before = teacher.copy()
    student, rounds = train_student(teacher, source_obs, source_poses, target_obs, anchors,
                                    ds.objects[0], ds.cam, objective, cfg, seed=0)
    assert student is teacher
    assert not np.array_equal(student.flat, before.flat)
    want_poses, want_conf = selftrain.pseudo_label(before, target_obs, anchors, ds.cam)
    np.testing.assert_array_equal(rounds[0].poses.rotation, want_poses.rotation)
    np.testing.assert_array_equal(rounds[0].poses.translation, want_poses.translation)
    np.testing.assert_array_equal(rounds[0].confidence, want_conf)


def test_pseudo_label_is_a_stack_with_depth_confidence():
    ds, anchors, teacher, _ = scalar_setup()
    _, _, target_obs = split_arrays(ds)
    poses, confidence = selftrain.pseudo_label(teacher, target_obs, anchors, ds.cam)
    assert poses.rotation.shape == (4, 3, 3) and confidence.shape == (4,)
    want = teacher.forward(target_obs).probs["z"].max(axis=1)
    np.testing.assert_array_equal(confidence, want)


def test_empty_target_split_trains_on_source_only(monkeypatch):
    ds, anchors, teacher, objective = scalar_setup()
    cfg = TrainConfig(rounds=2, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    source_obs, source_poses, _ = split_arrays(ds)
    _, rounds = train_student(teacher, source_obs, source_poses, np.zeros((0, OBS_DIM)),
                              anchors, ds.objects[0], ds.cam, objective, cfg, seed=0)
    assert [(len(r.confidence), len(r.selected)) for r in rounds] == [(0, 0), (0, 0)]
    assert [len(obs) for obs, _ in calls] == [8, 8]


def test_non_finite_loss_raises_with_the_last_finite_parameters():
    """One NaN observation makes its batch's loss NaN.  The check runs
    before that batch's backward, so the snapshot is the network as it
    stands at the raise: finite, and trained by the batches before it."""
    ds, anchors, net, objective = scalar_setup()
    obs, poses, _ = split_arrays(ds)
    obs = obs.copy()
    obs[np.random.default_rng(0).permutation(len(obs))[-1]] = np.nan  # the last batch
    before = net.flat.copy()
    with pytest.raises(TrainingFailureError) as info:
        train_supervised(net, Adam(net.flat, net.grad_buffer(), lr=1e-3), obs, poses, anchors,
                         ds.objects[0], ds.cam, objective, epochs=1, batch_size=2,
                         rng=np.random.default_rng(0))
    snapshot = info.value.snapshot
    assert (snapshot.shape, snapshot.dtype) == (net.flat.shape, net.flat.dtype)
    assert np.isfinite(snapshot).all()
    assert np.array_equal(snapshot, net.flat) and snapshot is not net.flat
    assert not np.array_equal(snapshot, before)


@pytest.mark.parametrize("kind", ["scalar", "cylinder"])
def test_training_leaves_no_reference_cycle(kind):
    """A step's activations, head outputs and loss maps are freed by
    reference counting alone: training leaves the cycle collector nothing."""
    cfg = config_from_dict({"network": {"feature_dim": 16, "encoder_hidden": [32],
                                        "head_hidden": 8}})
    dc = (0.0, 0.02, 0.0)
    scalar = kind == "scalar"
    ds = (make_scalar_task(16, 1, dc, dc, seed=0) if scalar else
          make_dataset(16, 1, [make_object(kind, seed=1, n_points=16)], build_camera(cfg),
                       dc, dc, seed=0, sample_ranges=SAMPLE_RANGES))
    anchors, net_cfg, objective = build_stage(cfg, ds, "teacher")
    net = PoseNetwork(net_cfg, seed=0)
    obs, poses, _ = split_arrays(ds)
    gc.collect()
    gc.disable()
    try:
        train_supervised(net, Adam(net.flat, net.grad_buffer(), lr=1e-3), obs, poses, anchors,
                         ds.objects[0], ds.cam, objective, epochs=2, batch_size=4,
                         rng=np.random.default_rng(0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_training_runs_in_float32_and_predictions_leave_in_float64(monkeypatch):
    """After teacher steps the parameters, gradients and Adam buffers are
    float32, as is every head output, every MLP input kept for backward
    and every head-output gradient the loss hands back.  Poses and
    confidences leave ``predict_poses`` as float64."""
    cfg = config_from_dict({"network": {"feature_dim": 16, "encoder_hidden": [32],
                                        "head_hidden": 8}})
    dc = (0.0, 0.02, 0.0)
    ds = make_dataset(16, 1, [make_object("cylinder", seed=1, n_points=16)], build_camera(cfg),
                      dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors, net_cfg, objective = build_stage(cfg, ds, "teacher")
    net = PoseNetwork(net_cfg, seed=0)
    optimizer = Adam(net.flat, net.grad_buffer(), lr=1e-3)
    seen, forward = [], net.forward

    def spy(obs):
        out = forward(obs)
        backward = out.backward
        seen.extend([*out.probs.values(), *out.residuals.values(), out.feature,
                     *(x for inputs in backward.args[0].values() for x in inputs)])

        def spy_backward(d_logits, d_residuals, d_feature):
            seen.extend([*d_logits.values(), *d_residuals.values(), d_feature])
            backward(d_logits, d_residuals, d_feature)

        out.backward = spy_backward
        return out

    monkeypatch.setattr(net, "forward", spy)
    obs, poses, _ = split_arrays(ds)
    train_supervised(net, optimizer, obs, poses, anchors, ds.objects[0], ds.cam, objective,
                     epochs=1, batch_size=4, rng=np.random.default_rng(0))
    buffers = [net.flat, net.grad, optimizer.m, optimizer.v, optimizer.tmp]
    # 4 steps of 9 head outputs, 2 inputs to each of 9 MLPs and 9 gradients
    assert len(seen) == 4 * (9 + 18 + 9)
    assert {a.dtype for a in seen + buffers} == {np.dtype(np.float32)}
    monkeypatch.undo()
    predicted, out = predict_poses(net, obs, anchors, ds.cam)
    assert predicted.rotation.dtype == predicted.translation.dtype == np.float64
    assert {c.dtype for c in confidence_scores(out).values()} == {np.dtype(np.float64)}
