"""Teacher/student self-training with confidence-gated sample selection.

A teacher is trained on labeled source data, then annotates the unlabeled
target split.  The max depth-classifier probability serves as confidence;
samples above a threshold join the student's training set with their
pseudo poses as labels.  The threshold decreases linearly over rounds so
easy samples enter first.

Everything here works on arrays of one object's split: observations
(n, obs_dim), a ``Pose`` stack of n labels, confidences (n,) and the
selected rows as an index array.  ``train_student`` adapts the teacher's
network in place into the student and returns each round's labels,
confidences and selection as a ``RoundStats``; row names,
evaluation-only ground truth and report files stay with the caller.
``TrainConfig`` is the ``train`` section of the run config, read as it is.
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
class TrainConfig:
    """The ``train`` section: the teacher and student schedules and the
    weight of the correlation regularizer; ``config.validate_config``
    checks the ranges."""

    tau_start: float = 0.5
    tau_end: float = 0.1
    rounds: int = 5
    teacher_epochs: int = 30
    student_epochs: int = 6
    lr_teacher: float = 3e-4
    lr_student: float = 3e-5
    batch_size: int = 32
    ctc_weight: float = 1.0

    def selftrain_config(self):
        # bench/run.py still calls this; it goes with the bench edit of ROADMAP item 1
        return self


def threshold_schedule(round_idx, cfg: TrainConfig):
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
    epochs: list = field(default_factory=list)   # (total, cls, reg, corr) mean losses per epoch

    @property
    def final_loss(self):
        return self.epochs[-1][0] if self.epochs else None


def train_supervised(net: PoseNetwork, optimizer: Adam, obs, poses: Pose, anchors: AnchorSet,
                     model: ObjectModel, cam: CameraIntrinsics,
                     objective: ObjectiveConfig, epochs, batch_size, rng) -> TrainStats:
    """Minimize the total objective over observations (n, obs_dim) labeled
    by a stack of n poses; deterministic for a fixed RNG state.  A
    non-finite loss, or a non-finite Adam second moment at an epoch's end,
    raises TrainingFailureError carrying the last finite parameter
    snapshot, a copy of the network's ``flat`` buffer."""
    stats = TrainStats()
    n = len(obs)
    if epochs == 0 or n == 0:
        return stats
    snapshot = net.flat.copy()
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
                if np.isfinite(net.flat).all():
                    snapshot = net.flat.copy()
                raise TrainingFailureError(
                    f"training diverged: non-finite loss {value}", snapshot=snapshot)
            breakdown.total.backward()
            optimizer.step()
            losses.append(value)
            parts.append((breakdown.cls_value, breakdown.reg_value, breakdown.corr_value))
        stats.epochs.append((float(np.mean(losses)), *np.mean(parts, axis=0)))
        if not np.isfinite(optimizer.v).all():      # float32 g * g overflowed
            raise TrainingFailureError("training diverged: non-finite Adam second moment",
                                       snapshot=snapshot)
        if np.isfinite(net.flat).all():
            snapshot = net.flat.copy()
    return stats


def train_teacher(obs, poses: Pose, net: PoseNetwork, anchors: AnchorSet,
                  model: ObjectModel, cam: CameraIntrinsics,
                  objective: ObjectiveConfig, cfg: TrainConfig, seed):
    """Fit the teacher on the labeled source split; ``seed``, an int or a
    ``SeedSequence``, orders its batches."""
    optimizer = Adam(net.flat, net.grad_buffer(), lr=cfg.lr_teacher)
    rng = np.random.default_rng(seed)
    return train_supervised(net, optimizer, obs, poses, anchors, model, cam,
                            objective, cfg.teacher_epochs, cfg.batch_size, rng)


def pseudo_label(annotator: PoseNetwork, obs, anchors: AnchorSet, cam: CameraIntrinsics):
    """Predicted pose stack of the observations and its confidence (n,),
    the max depth probability of each row."""
    poses, out = predict_poses(annotator, obs, anchors, cam)
    return poses, confidence_scores(out)["z"]


@dataclass
class RoundStats:
    """One self-training round: its threshold, the pseudo labels of every
    target row with their confidences, and the rows the student trained
    on (empty: the round trained on source only)."""

    round_index: int
    tau: float
    poses: Pose
    confidence: np.ndarray
    selected: np.ndarray


def train_student(teacher: PoseNetwork, source_obs, source_poses: Pose, target_obs,
                  anchors: AnchorSet, model: ObjectModel, cam: CameraIntrinsics,
                  objective: ObjectiveConfig, cfg: TrainConfig, seed):
    """Self-training rounds: annotate, select by threshold, fit the student.

    The student is the teacher's network, adapted in place: the caller
    hands the teacher over, and passes a copy if it needs the teacher
    afterwards.  Each round is annotated by the network as it stands, so
    round 0 by the teacher, and trains on the source split plus the
    selected target rows with their pseudo poses, in batches that ``seed``
    orders.  Returns the student and one ``RoundStats`` per round.
    """
    student, rounds_stats = teacher, []
    if cfg.rounds == 0:
        return student, rounds_stats
    optimizer = Adam(student.flat, student.grad_buffer(), lr=cfg.lr_student)
    rng = np.random.default_rng(seed)
    for r in range(cfg.rounds):
        poses, confidence = pseudo_label(student, target_obs, anchors, cam)
        tau = threshold_schedule(r, cfg)
        selected = select_samples(confidence, tau)
        train_supervised(student, optimizer, np.concatenate([source_obs, target_obs[selected]]),
                         Pose.stack([source_poses, poses[selected]]), anchors, model, cam,
                         objective, cfg.student_epochs, cfg.batch_size, rng)
        rounds_stats.append(RoundStats(r, tau, poses, confidence, selected))
    return student, rounds_stats
