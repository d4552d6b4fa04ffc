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
    PseudoLabel,
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
    def labels(self, *confidences):
        pose = Pose(np.eye(3), [0.0, 0.0, 1.0])
        return [PseudoLabel(f"t{i}", pose, c) for i, c in enumerate(confidences)]

    def test_threshold_is_strict(self):
        chosen = select_samples(self.labels(0.2, 0.3, 0.5, 0.3), 0.3)
        assert [l.sample_id for l in chosen] == ["t2"]

    def test_order_kept(self):
        chosen = select_samples(self.labels(0.9, 0.2, 0.7), 0.1)
        assert [l.sample_id for l in chosen] == ["t0", "t1", "t2"]

    def test_tau_range(self):
        with pytest.raises(InvalidArgumentError):
            select_samples(self.labels(0.5), 1.5)


def test_empty_selection_round_trains_on_source_only(monkeypatch):
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
    # a confidence is a probability, so none can exceed tau = 1
    cfg = SelfTrainConfig(tau_start=1.0, tau_end=1.0, rounds=1, student_epochs=1)
    trained_on = []
    original = selftrain.train_supervised

    def recording(net, optimizer, entries, *args):
        trained_on.append(len(entries))
        return original(net, optimizer, entries, *args)

    monkeypatch.setattr(selftrain, "train_supervised", recording)
    student, rounds = train_student(teacher, ds.source, ds.target, anchors, ds.objects[0],
                                    ds.cam, objective, cfg)
    assert len(rounds) == 1
    assert rounds[0].n_candidates == 4
    assert rounds[0].n_selected == 0 and rounds[0].selected_ids == []
    assert trained_on == [len(ds.source)]
    assert np.isfinite(rounds[0].train_loss)
    before, after = teacher.state_arrays(), student.state_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)
