"""Teacher/student self-training with confidence-gated sample selection.

A teacher is trained on labeled source data, then annotates the unlabeled
target split.  The max depth-classifier probability serves as confidence;
samples above a threshold join the student's training set with their
pseudo poses as labels.  The threshold decreases linearly over rounds so
easy samples enter first.

Everything here works on arrays of one object's split: observations
(n, obs_dim), a ``Pose`` stack of n labels, confidences (n,) and the
selected rows as an index array.  Sample ids and evaluation-only ground
truth stay with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, TrainingFailureError
from .geometry import AnchorSet, CameraIntrinsics, ObjectModel, Pose
from .losses import ObjectiveConfig, prepare_batch_supervision, total_objective
from .metrics import confidence_scores, predict_poses
from .network import Adam, PoseNetwork


@dataclass(frozen=True)
class SelfTrainConfig:
    tau_start: float = 0.5
    tau_end: float = 0.1
    rounds: int = 5
    teacher_epochs: int = 30
    student_epochs: int = 6
    lr_teacher: float = 3e-4
    lr_student: float = 3e-5
    batch_size: int = 32

    def __post_init__(self):
        if not (0.0 < self.tau_end <= self.tau_start <= 1.0):
            raise InvalidArgumentError("need 0 < tau_end <= tau_start <= 1")
        if self.rounds < 0:
            raise InvalidArgumentError("rounds must be >= 0")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch size must be >= 1")


def threshold_schedule(round_idx, cfg: SelfTrainConfig):
    """Linear confidence threshold: tau_start at round 0 down to tau_end
    at the final round; constant when there is a single round."""
    n = max(cfg.rounds, 1)
    if not 0 <= round_idx < n:
        raise InvalidArgumentError(f"round {round_idx} outside [0, {n})")
    if n == 1:
        return cfg.tau_start
    frac = round_idx / (n - 1)
    return cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac


def select_samples(confidence, tau):
    """Rows whose confidence strictly exceeds tau, in their original order."""
    if not 0.0 <= tau <= 1.0:
        raise InvalidArgumentError("tau must be in [0, 1]")
    return np.flatnonzero(confidence > tau)


# ---------------------------------------------------------------------------
# supervised loop shared by teacher and student stages


@dataclass
class TrainStats:
    epoch_losses: list = field(default_factory=list)
    epoch_breakdown: list = field(default_factory=list)  # (cls, reg, corr) per epoch

    @property
    def final_loss(self):
        return self.epoch_losses[-1] if self.epoch_losses else None


def train_supervised(net: PoseNetwork, optimizer: Adam, obs, poses: Pose, anchors: AnchorSet,
                     model: ObjectModel, cam: CameraIntrinsics,
                     objective: ObjectiveConfig, epochs, batch_size, rng) -> TrainStats:
    """Minimize the total objective over observations (n, obs_dim) labeled
    by a stack of n poses; deterministic for a fixed RNG state.  Non-finite
    loss raises TrainingFailureError carrying the last finite parameter
    snapshot."""
    stats = TrainStats()
    n = len(obs)
    if epochs == 0 or n == 0:
        return stats
    snapshot = net.state_arrays()
    branches = tuple(net.config.branches())
    sup_all = prepare_batch_supervision(poses, anchors, cam, objective, branches=branches)
    for _ in range(epochs):
        perm = rng.permutation(n)
        losses, parts = [], []
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            out = net.forward(obs[idx])
            breakdown = total_objective(out, sup_all[idx], anchors, model, cam, objective)
            value = breakdown.total_value
            if not np.isfinite(value):
                if all(np.isfinite(p).all() for p in net.state_arrays().values()):
                    snapshot = net.state_arrays()
                raise TrainingFailureError(
                    f"non-finite loss {value}", snapshot=snapshot)
            breakdown.total.backward()
            optimizer.step()
            net.zero_grad()
            losses.append(value)
            parts.append((breakdown.cls_value, breakdown.reg_value, breakdown.corr_value))
        stats.epoch_losses.append(float(np.mean(losses)))
        stats.epoch_breakdown.append(tuple(np.mean(parts, axis=0)))
        if all(np.isfinite(p).all() for p in net.state_arrays().values()):
            snapshot = net.state_arrays()
    return stats


def train_teacher(obs, poses: Pose, net: PoseNetwork, anchors: AnchorSet,
                  model: ObjectModel, cam: CameraIntrinsics,
                  objective: ObjectiveConfig, cfg: SelfTrainConfig, seed=0):
    """Fit the teacher on the labeled source split."""
    optimizer = Adam(net.parameters(), lr=cfg.lr_teacher)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7EAC]))
    return train_supervised(net, optimizer, obs, poses, anchors, model, cam,
                            objective, cfg.teacher_epochs, cfg.batch_size, rng)


def pseudo_label(annotator: PoseNetwork, obs, anchors: AnchorSet, cam: CameraIntrinsics):
    """Predicted pose stack of the observations and its confidence (n,),
    the max depth probability of each row."""
    poses, out = predict_poses(annotator, obs, anchors, cam)
    return poses, confidence_scores(out)["z"]


@dataclass
class RoundStats:
    round_index: int
    tau: float
    n_candidates: int
    selected: np.ndarray              # target rows; empty: the round trained on source only
    train_loss: float = None


def train_student(teacher: PoseNetwork, source_obs, source_poses: Pose, target_obs,
                  anchors: AnchorSet, model: ObjectModel, cam: CameraIntrinsics,
                  objective: ObjectiveConfig, cfg: SelfTrainConfig, seed=0,
                  label_sink=None):
    """Self-training rounds: annotate, select by threshold, fit the student.

    The student starts as a copy of the teacher.  Round 0 is annotated by
    the teacher, later rounds by the current student.  Each round trains
    on the source split plus the selected target rows with their pseudo
    poses.  ``label_sink(round_idx, poses, confidence)`` observes each
    round's pseudo labels (cache files, diagnostics).
    """
    student = teacher.copy()
    rounds_stats = []
    if cfg.rounds == 0:
        return student, rounds_stats
    optimizer = Adam(student.parameters(), lr=cfg.lr_student)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57D]))
    for r in range(cfg.rounds):
        poses, confidence = pseudo_label(teacher if r == 0 else student, target_obs,
                                         anchors, cam)
        if label_sink is not None:
            label_sink(r, poses, confidence)
        tau = threshold_schedule(r, cfg)
        selected = select_samples(confidence, tau)
        stats = train_supervised(student, optimizer,
                                 np.concatenate([source_obs, target_obs[selected]]),
                                 Pose.stack([source_poses, poses[selected]]), anchors, model,
                                 cam, objective, cfg.student_epochs, cfg.batch_size, rng)
        rounds_stats.append(RoundStats(round_index=r, tau=tau, n_candidates=len(confidence),
                                       selected=selected, train_loss=stats.final_loss))
    return student, rounds_stats
