"""End-to-end experiment orchestration used by the command line.

A run directory is driven entirely by one RunConfig: dataset generation,
per-object teacher/student training (or the direct-regression baseline), and
evaluation reports all derive their randomness from configured seeds.
Each ``run_*`` command writes its files into the run directory and
returns nothing.  A student stage whose teacher is missing or
incompatible writes nothing, and one whose student fails to train leaves
that object's pseudo-label caches and round table unwritten.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .config import RunConfig, save_config
from .errors import (
    CheckpointError,
    CheckpointIncompatibleError,
    DependencyError,
    InvalidArgumentError,
    TrainingFailureError,
)
from .geometry import AnchorSet, CameraIntrinsics
from .losses import ObjectiveConfig, build_target_graph
from .metrics import average_recall, confidence_scores, evaluate_pose, predict_poses, scalar_mae
from .network import NetworkConfig, PoseNetwork, load_checkpoint, save_checkpoint
from .reports import (
    ensure_dir,
    write_loss_curve,
    write_mae_table,
    write_pseudo_cache,
    write_recall_table,
    write_round_stats,
    write_sweep,
)
from .selftrain import train_student, train_teacher
from .synth import (
    SCALAR_RANGE,
    Dataset,
    evaluation_access,
    load_dataset,
    make_dataset,
    make_domain_config,
    make_object,
    make_scalar_task,
    row_names,
    save_dataset,
)

# train stage -> file prefix of its checkpoints and reports
STAGES = {"teacher": "teacher", "student": "student", "baseline-regression": "baseline"}
DOMAINS = ("source", "target")
SWEEP_TAUS = np.round(np.linspace(0.0, 0.95, 20), 6)


# ---------------------------------------------------------------------------
# assembly helpers


def build_camera(cfg: RunConfig) -> CameraIntrinsics:
    return CameraIntrinsics(*cfg.data.camera)     # fx, fy


def build_anchors(cfg: RunConfig, scalar=False, single=False) -> AnchorSet:
    """The configured anchors of the pose or the scalar task; ``single``
    gives the direct-regression baseline one anchor per branch."""
    a = cfg.anchors
    if scalar:
        counts, ranges = (1, 1, 1, cfg.data.scalar_bins), ((-1.0, 1.0), (-1.0, 1.0), SCALAR_RANGE)
    else:
        counts, ranges = (a.n_rot, a.n_vx, a.n_vy, a.n_z), (a.vx_range, a.vy_range, a.z_range)
    return AnchorSet.build(*((1, 1, 1, 1) if single else counts), *ranges, a.seed)


def build_stage(cfg: RunConfig, ds: Dataset, stage):
    """Anchors, network config and objective of ``stage`` on ``ds``; the
    direct-regression baseline has one anchor per branch, no classifier and
    no correlation term, and the scalar task keeps only the z branch."""
    scalar, baseline = ds.kind == "scalar", stage == "baseline-regression"
    anchors = build_anchors(cfg, scalar=scalar, single=baseline)
    n = cfg.network
    n_rot, n_vx, n_vy = ((0, 0, 0) if scalar else
                         (anchors.n_rot, len(anchors.bins_vx), len(anchors.bins_vy)))
    net_cfg = NetworkConfig(obs_dim=ds.obs_dim, n_rot=n_rot, n_vx=n_vx, n_vy=n_vy,
                            n_z=len(anchors.bins_z), feature_dim=n.feature_dim,
                            encoder_hidden=tuple(n.encoder_hidden), head_hidden=n.head_hidden)
    objective = ObjectiveConfig(
        labels=cfg.scores, use_cls=not baseline,
        ctc_weight=0.0 if baseline else cfg.train.ctc_weight,
        target_graph=build_target_graph(anchors.bins_z, *anchors.z_range))
    return anchors, net_cfg, objective


# ---------------------------------------------------------------------------
# gen-data


def run_gen_data(cfg: RunConfig):
    """Generate and save the benchmark dataset."""
    ensure_dir(cfg.out_dir)
    save_config(os.path.join(cfg.out_dir, "config.json"), cfg)
    d = cfg.data
    if cfg.scalar_task:
        ds = make_scalar_task(
            d.n_source, d.n_target,
            make_domain_config(0.0, d.scalar_source_noise, 0.0, seed=cfg.seed + 11),
            make_domain_config(d.scalar_target_offset, d.scalar_target_noise, 0.0,
                               seed=cfg.seed + 12), seed=cfg.seed)
    else:
        objects = [make_object(kind, seed=d.object_seed + i, n_points=d.n_points)
                   for i, kind in enumerate(d.object_kinds)]
        source_cfg = make_domain_config(d.source_offset, d.source_noise,
                                        d.source_dropout, seed=cfg.seed + 1)
        target_cfg = make_domain_config(d.target_offset, d.target_noise,
                                        d.target_dropout, seed=cfg.seed + 2)
        ds = make_dataset(d.n_source, d.n_target, objects, build_camera(cfg),
                          source_cfg, target_cfg, seed=cfg.seed,
                          object_kinds=list(d.object_kinds),
                          sample_ranges={"vx": d.vx_sample_range,
                                         "vy": d.vy_sample_range,
                                         "z": d.z_sample_range})
    path = cfg.dataset_path()
    ensure_dir(os.path.dirname(path) or ".")
    save_dataset(path, ds)
    print(f"dataset: {path} kind={ds.kind} source={d.n_source} target={d.n_target} "
          f"objects={len(ds.objects)} seed={cfg.seed}")


def load_dataset_or_fail(cfg: RunConfig) -> Dataset:
    path = cfg.dataset_path()
    if not os.path.exists(path):
        raise DependencyError(f"dataset {path} not found; run gen-data first")
    return load_dataset(path)


# ---------------------------------------------------------------------------
# reports


def predict_split(net, ds: Dataset, i, domain, anchors):
    """Predicted and ground-truth pose stacks of object ``i`` on one split,
    and the network output."""
    split = ds.by_object(i, domain)
    poses, out = predict_poses(net, split.observation, anchors, ds.cam)
    with evaluation_access():
        return poses, split.gt_pose, out


def quality_rows(net, ds: Dataset, i, anchors):
    """Object ``i``'s report row on each split (domain -> row): on a pose
    dataset (name, count, recall or None), each split scored in one
    ``evaluate_pose`` call; on the scalar task (domain, count, MAE)."""
    rows = {}
    for domain in DOMAINS:
        poses, gt, _ = predict_split(net, ds, i, domain, anchors)
        if ds.kind == "scalar":
            rows[domain] = (domain, len(poses), scalar_mae(poses.z, gt.z))
            continue
        hits = evaluate_pose(poses, gt, ds.objects[i]).hit
        name = ds.object_kinds[i] or f"object{i}"
        rows[domain] = (f"{name}{i}", len(hits), average_recall(hits) if len(hits) else None)
    return rows


def write_quality_reports(cfg: RunConfig, ds: Dataset, rows, tag):
    """Write the report of ``rows``, one ``quality_rows`` per object: one
    recall table per split for a pose dataset, one ``mae_<tag>.tsv`` for
    the scalar task."""
    if ds.kind == "scalar":
        (mae,) = rows
        write_mae_table(os.path.join(cfg.out_dir, f"mae_{tag}.tsv"), list(mae.values()))
        print(f"{tag}: MAE source {mae['source'][2]:.4f} target {mae['target'][2]:.4f}")
        return
    for domain in DOMAINS:
        recall = write_recall_table(os.path.join(cfg.out_dir, f"recall_{tag}_{domain}.tsv"),
                                    [r[domain] for r in rows])
        print(f"{tag}: {domain} mean recall " + ("n/a" if recall is None else f"{recall:.2f}%"))


def write_round_reports(cfg: RunConfig, ds: Dataset, i, rounds):
    """Object ``i``'s pseudo-label cache of each self-training round and,
    on a pose dataset, its round table: tau, candidates, selected count
    and the recall of the selected pseudo labels."""
    target = ds.by_object(i, "target")
    names = row_names("target", range(len(ds.target))[i::len(ds.objects)])
    for r in rounds:
        write_pseudo_cache(
            os.path.join(cfg.out_dir, f"pseudo_student_obj{i}_round{r.round_index}.tsv"),
            names, r.poses, r.confidence, r.round_index)
    if ds.kind == "scalar":
        return
    with evaluation_access():
        gt = target.gt_pose
    rows = []
    for r in rounds:
        recall = None
        if len(r.selected):
            recall = average_recall(
                evaluate_pose(r.poses[r.selected], gt[r.selected], ds.objects[i]).hit)
        rows.append((r.round_index, r.tau, len(r.confidence), len(r.selected), recall))
    write_round_stats(os.path.join(cfg.out_dir, f"rounds_student_obj{i}.tsv"), rows)


# ---------------------------------------------------------------------------
# train


def _ckpt_path(out_dir, stage, obj_id):
    return os.path.join(out_dir, f"{STAGES[stage]}_obj{obj_id}.ckpt")


def load_teachers(cfg: RunConfig, ds: Dataset, needed_by):
    """Object id -> network of the run's trained teacher, checked against
    ``build_stage``; a missing checkpoint is a dependency of ``needed_by``."""
    net_cfg, nets = build_stage(cfg, ds, "teacher")[1], {}
    for i in range(len(ds.objects)):
        path = _ckpt_path(cfg.out_dir, "teacher", i)
        if not os.path.exists(path):
            raise DependencyError(f"{needed_by} needs {path}; run --stage teacher first")
        nets[i] = load_checkpoint(path, expected_config=net_cfg)[0]
    return nets


_job = None     # a forked worker's training function, set once in the worker


def _start_worker(job):
    global _job
    _job = job


def _run_job(i):
    return _job(i)


def run_train(cfg: RunConfig, stage, workers=1):
    """Train one stage for every object and write its checkpoints and
    reports.  The scalar task runs the same path as one object with only
    the z branch active.  Up to ``workers`` forked processes train the
    objects; this process scores each trained object and writes every file
    and line in object order, so the outputs and the first error do not
    depend on ``workers``.  The command line runs one worker per CPU and
    one BLAS thread per process; a library call trains serially by default."""
    if stage not in STAGES:
        raise InvalidArgumentError(f"unknown stage {stage!r}; choose from {tuple(STAGES)}")
    ds = load_dataset_or_fail(cfg)
    anchors, net_cfg, objective = build_stage(cfg, ds, stage)
    teachers = load_teachers(cfg, ds, "student stage") if stage == "student" else None
    ensure_dir(cfg.out_dir)
    save_config(os.path.join(cfg.out_dir, f"config_{stage}.json"), cfg)
    prefix = STAGES[stage]

    def train(i):
        source, model = ds.by_object(i, "source"), ds.objects[i]
        if stage == "student":
            net, stats = train_student(
                teachers.pop(i), source.observation, source.gt_pose,   # adapted in place
                ds.by_object(i, "target").observation, anchors, model, ds.cam, objective,
                cfg.train, seed=cfg.seed + 100 + i)
        else:
            net = PoseNetwork(net_cfg, seed=cfg.network.seed + i)
            stats = train_teacher(source.observation, source.gt_pose, net, anchors, model,
                                  ds.cam, objective, cfg.train, seed=cfg.seed + 10 + i)
        return net.flat, stats

    objects, n, quality, pool = range(len(ds.objects)), min(workers, len(ds.objects)), [], None
    broken = ()     # the error of a worker that died; a serial run has none
    if n > 1:
        # the fork hands each worker ``train`` with the dataset, anchors and teachers
        # it reads; only the object ids and the results are pickled
        import multiprocessing      # 25 ms at start-up, paid only by a step that forks
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool as broken
        sys.stdout.flush()          # else each worker flushes the buffer it inherits again
        pool = ProcessPoolExecutor(n, multiprocessing.get_context("fork"), _start_worker,
                                   (train,))
    try:
        # unlike a multiprocessing.Pool, the executor raises if a worker is killed
        results = pool.map(_run_job, objects) if pool else map(train, objects)
        for i, (flat, stats) in enumerate(results):
            net = PoseNetwork(net_cfg)
            net.flat[...] = flat
            if stage == "student":
                write_round_reports(cfg, ds, i, stats)
                print(f"{stage}: object {i} trained")
            else:
                write_loss_curve(os.path.join(cfg.out_dir, f"loss_{prefix}_obj{i}.tsv"), stats)
                loss = "" if stats.final_loss is None else f", final loss {stats.final_loss:.4f}"
                print(f"{stage}: object {i} trained{loss}")
            save_checkpoint(_ckpt_path(cfg.out_dir, stage, i), net,
                            meta={"stage": stage, "object_id": i, "kind": ds.kind})
            quality.append(quality_rows(net, ds, i, anchors))   # while the workers train
    except broken as e:     # say, at the hands of the out-of-memory killer
        raise TrainingFailureError(f"a training worker died: {e}") from e
    finally:
        if pool:    # also after an error: no worker outlives the stage
            pool.shutdown(cancel_futures=True)
    write_quality_reports(cfg, ds, quality, prefix)


# ---------------------------------------------------------------------------
# eval


def run_eval(cfg: RunConfig, checkpoint):
    """Evaluation-only pass of one checkpoint over the configured dataset."""
    ds = load_dataset_or_fail(cfg)
    if not os.path.exists(checkpoint):
        raise DependencyError(f"checkpoint {checkpoint} not found")
    net, meta = load_checkpoint(checkpoint)
    anchors, expected, _ = build_stage(cfg, ds, meta.get("stage"))
    if net.config != expected:
        raise CheckpointIncompatibleError(
            f"checkpoint network {net.config} does not match config-derived {expected}")
    obj = meta.get("object_id", 0)
    if type(obj) is not int:      # a bool or a float is no object id
        raise CheckpointError(f"{checkpoint}: corrupt checkpoint (meta object_id {obj!r} is not "
                              "an integer)")
    if not 0 <= obj < len(ds.objects):
        raise CheckpointIncompatibleError(
            f"checkpoint object {obj} is not in the dataset's {len(ds.objects)} objects")
    ensure_dir(cfg.out_dir)
    write_quality_reports(cfg, ds, [quality_rows(net, ds, obj, anchors)], "eval")


# ---------------------------------------------------------------------------
# threshold sweep


def run_sweep(cfg: RunConfig):
    """Sweep the selection threshold over the run's teacher pseudo labels.

    For each confidence source (per-branch max probability) and each tau
    of ``SWEEP_TAUS``, report the pooled recall of ADD(-S) hits among
    selected samples.
    """
    ds = load_dataset_or_fail(cfg)
    if ds.kind == "scalar":
        raise InvalidArgumentError("threshold sweep expects a pose dataset")
    anchors = build_stage(cfg, ds, "teacher")[0]
    nets = load_teachers(cfg, ds, "sweep")
    ensure_dir(cfg.out_dir)
    # confidence + hit per target sample, pooled over objects
    per_branch_conf = {}
    hits = []
    for i, net in nets.items():
        poses, gt, out = predict_split(net, ds, i, "target", anchors)
        hits.append(evaluate_pose(poses, gt, ds.objects[i]).hit)
        for branch, values in confidence_scores(out).items():
            per_branch_conf.setdefault(branch, []).append(values)
    hits = np.concatenate(hits)
    for branch, values in per_branch_conf.items():
        values = np.concatenate(values)
        rows = []
        for tau in SWEEP_TAUS:
            sel = values > tau
            n = int(sel.sum())
            recall = float(100.0 * hits[sel].mean()) if n else None
            rows.append((float(tau), n, recall))
        write_sweep(os.path.join(cfg.out_dir, f"sweep_{branch}.tsv"), rows)
        print(f"sweep: {branch}: {sum(1 for r in rows if r[2] is not None)} nonempty taus")
