"""Self-training: threshold schedule, selection, and the student loop."""

import numpy as np
import pytest

from poseadapt import selftrain
from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import AnchorSet, Pose, generate_translation_bins
from poseadapt.labeling import LabelConfig, ScoreAssignmentConfig
from poseadapt.losses import ObjectiveConfig
from poseadapt.network import NetworkConfig, PoseNetwork
from poseadapt.selftrain import (
    SelfTrainConfig,
    select_samples,
    threshold_schedule,
    train_student,
)
from poseadapt.synth import OBS_DIM, ScalarShiftConfig, make_domain_config, make_scalar_task


class TestThresholdSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = SelfTrainConfig(tau_start=0.5, tau_end=0.1, rounds=5)
        assert threshold_schedule(0, cfg) == 0.5
        assert threshold_schedule(2, cfg) == pytest.approx(0.3)
        assert threshold_schedule(4, cfg) == pytest.approx(0.1)

    def test_single_round_uses_the_start_threshold(self):
        for rounds in (0, 1):
            cfg = SelfTrainConfig(tau_start=0.5, tau_end=0.1, rounds=rounds)
            assert threshold_schedule(0, cfg) == 0.5

    def test_round_out_of_range(self):
        cfg = SelfTrainConfig(rounds=3)
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


def scalar_setup():
    """A small scalar task, its one-branch anchors, an untrained teacher
    and a CTC-free objective."""
    shift = ScalarShiftConfig(source=make_domain_config(0.0, 0.01, 0.0, seed=1),
                              target=make_domain_config(0.7, 0.02, 0.0, seed=2))
    ds = make_scalar_task(8, 4, shift, seed=0)
    anchors = AnchorSet(rotations=np.eye(3)[None], bins_vx=np.zeros(1),
                        bins_vy=np.zeros(1), bins_z=generate_translation_bins(0.5, 1.0, 4),
                        z_range=(0.5, 1.0))
    teacher = PoseNetwork(NetworkConfig(obs_dim=OBS_DIM, n_rot=0, n_vx=0, n_vy=0, n_z=4,
                                        feature_dim=8, encoder_hidden=(8,), head_hidden=4))
    t = ScoreAssignmentConfig(0.6, 0.2, 3)
    objective = ObjectiveConfig(labels=LabelConfig(t, t, t, t), ctc_weight=0.0)
    return ds, anchors, teacher, objective


def split_arrays(ds):
    """Source observations and poses, and target observations."""
    source, target = ds.by_object(0, "source"), ds.by_object(0, "target")
    return (np.stack([s.observation for s in source]), Pose.stack([s.gt_pose for s in source]),
            np.stack([s.observation for s in target]))


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
    cfg = SelfTrainConfig(tau_start=1.0, tau_end=1.0, rounds=1, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    source_obs, source_poses, target_obs = split_arrays(ds)
    student, rounds = train_student(teacher, source_obs, source_poses, target_obs, anchors,
                                    ds.objects[0], ds.cam, objective, cfg)
    assert len(rounds) == 1
    assert rounds[0].n_candidates == 4
    assert len(rounds[0].selected) == 0
    assert [(len(obs), len(poses)) for obs, poses in calls] == [(8, 8)]
    assert np.isfinite(rounds[0].train_loss)
    before, after = teacher.state_arrays(), student.state_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_selected_rows_join_the_source_with_their_pseudo_poses(monkeypatch):
    ds, anchors, teacher, objective = scalar_setup()
    cfg = SelfTrainConfig(tau_start=0.3, tau_end=0.2, rounds=2, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    labels = []
    source_obs, source_poses, target_obs = split_arrays(ds)
    _, rounds = train_student(teacher, source_obs, source_poses, target_obs, anchors,
                              ds.objects[0], ds.cam, objective, cfg,
                              label_sink=lambda r, poses, conf: labels.append((r, poses, conf)))
    assert [r for r, _, _ in labels] == [0, 1]
    assert sum(len(r.selected) for r in rounds) > 0
    for r, (obs, poses), (_, pseudo, conf) in zip(rounds, calls, labels):
        assert len(pseudo) == len(conf) == r.n_candidates == 4
        np.testing.assert_array_equal(r.selected, np.flatnonzero(conf > r.tau))
        assert len(obs) == len(poses) == 8 + len(r.selected)
        np.testing.assert_array_equal(obs, np.concatenate([source_obs, target_obs[r.selected]]))
        np.testing.assert_array_equal(poses.rotation[8:], pseudo.rotation[r.selected])
        np.testing.assert_array_equal(poses.translation[:8], source_poses.translation)
        np.testing.assert_array_equal(poses.translation[8:], pseudo.translation[r.selected])
    # the first round's labels come from the teacher
    want_poses, want_conf = selftrain.pseudo_label(teacher, target_obs, anchors, ds.cam)
    np.testing.assert_array_equal(labels[0][1].z, want_poses.z)
    np.testing.assert_array_equal(labels[0][2], want_conf)


def test_pseudo_label_is_a_stack_with_depth_confidence():
    ds, anchors, teacher, _ = scalar_setup()
    _, _, target_obs = split_arrays(ds)
    poses, confidence = selftrain.pseudo_label(teacher, target_obs, anchors, ds.cam)
    assert poses.rotation.shape == (4, 3, 3) and confidence.shape == (4,)
    want = teacher.forward(target_obs).probs["z"].data.max(axis=1)
    np.testing.assert_array_equal(confidence, want)


def test_empty_target_split_trains_on_source_only(monkeypatch):
    ds, anchors, teacher, objective = scalar_setup()
    cfg = SelfTrainConfig(rounds=2, student_epochs=1)
    calls = record_training_sets(monkeypatch)
    source_obs, source_poses, _ = split_arrays(ds)
    _, rounds = train_student(teacher, source_obs, source_poses, np.zeros((0, OBS_DIM)),
                              anchors, ds.objects[0], ds.cam, objective, cfg)
    assert [(r.n_candidates, len(r.selected)) for r in rounds] == [(0, 0), (0, 0)]
    assert [len(obs) for obs, _ in calls] == [8, 8]
