"""End-to-end experiment orchestration used by the command line.

A run directory is driven entirely by one RunConfig: dataset generation,
per-object teacher/student training (or the ablation variants), and
evaluation reports all derive their randomness from configured seeds.
"""

from __future__ import annotations

import os

import numpy as np

from .config import RunConfig, save_config
from .errors import CheckpointIncompatibleError, DependencyError, InvalidArgumentError
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
    save_dataset,
)

STAGES = ("teacher", "student", "baseline-regression", "no-ctc")
DOMAINS = ("source", "target")
SWEEP_TAUS = np.round(np.linspace(0.0, 0.95, 20), 6)

_STAGE_PREFIX = {
    "teacher": "teacher",
    "no-ctc": "teacher-noctc",
    "baseline-regression": "baseline",
    "student": "student",
}


# ---------------------------------------------------------------------------
# assembly helpers


def build_camera(cfg: RunConfig) -> CameraIntrinsics:
    fx, fy, cx, cy = cfg.data.camera
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)


def build_anchors(cfg: RunConfig, scalar=False, single=False) -> AnchorSet:
    """The configured anchors; ``single`` gives the direct-regression
    baseline one anchor per branch."""
    a = cfg.anchors
    if scalar:
        n_z = 1 if single else cfg.data.scalar_bins
        return AnchorSet.build(1, 1, 1, n_z, (-1.0, 1.0), (-1.0, 1.0), SCALAR_RANGE, a.seed)
    counts = (1, 1, 1, 1) if single else (a.n_rot, a.n_vx, a.n_vy, a.n_z)
    return AnchorSet.build(*counts, a.vx_range, a.vy_range, a.z_range, a.seed)


def build_network_config(cfg: RunConfig, obs_dim, anchors: AnchorSet,
                         scalar=False) -> NetworkConfig:
    """Branch sizes from the anchors; the scalar task keeps only z."""
    n = cfg.network
    n_rot, n_vx, n_vy = ((0, 0, 0) if scalar else
                         (anchors.n_rot, len(anchors.bins_vx), len(anchors.bins_vy)))
    return NetworkConfig(obs_dim=obs_dim, n_rot=n_rot, n_vx=n_vx, n_vy=n_vy,
                         n_z=len(anchors.bins_z), feature_dim=n.feature_dim,
                         encoder_hidden=tuple(n.encoder_hidden), head_hidden=n.head_hidden)


def build_objective(cfg: RunConfig, anchors: AnchorSet, stage) -> ObjectiveConfig:
    """Loss terms of one stage; the direct-regression baseline drops the
    classifier and the correlation term."""
    use_cls = stage != "baseline-regression"
    use_ctc = stage not in ("baseline-regression", "no-ctc")
    tg = build_target_graph(anchors.bins_z, anchors.z_range[0], anchors.z_range[1])
    return ObjectiveConfig(labels=cfg.scores, use_cls=use_cls,
                           ctc_weight=cfg.train.ctc_weight if use_ctc else 0.0,
                           target_graph=tg)


# ---------------------------------------------------------------------------
# gen-data


def run_gen_data(cfg: RunConfig, log=print):
    """Generate and save the benchmark dataset; returns its path."""
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
    log(f"dataset: {path} kind={ds.kind} source={d.n_source} target={d.n_target} "
        f"objects={len(ds.objects)} seed={cfg.seed}")
    return path


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


def recall_by_object(nets, ds: Dataset, anchors, domain):
    """Recall-table rows (name, count, recall or None), one per network of
    ``nets`` (object id -> network), each object scored in one
    ``evaluate_pose`` call."""
    rows = []
    for i, net in nets.items():
        poses, gt, _ = predict_split(net, ds, i, domain, anchors)
        hits = evaluate_pose(poses, gt, ds.objects[i]).hit
        name = ds.object_kinds[i] or f"object{i}"
        rows.append((f"{name}{i}", len(hits), average_recall(hits) if len(hits) else None))
    return rows


def write_quality_reports(cfg: RunConfig, ds: Dataset, nets, anchors, tag, log=print):
    """Score ``nets`` (object id -> network) on both splits and write the
    report: one recall table per split for a pose dataset, one
    ``mae_<tag>.tsv`` for the scalar task.  Returns {"recall" | "mae":
    {domain: value}}."""
    if ds.kind == "scalar":
        (i, net), = nets.items()
        rows = []
        for domain in DOMAINS:
            poses, gt, _ = predict_split(net, ds, i, domain, anchors)
            rows.append((domain, len(poses), scalar_mae(poses.z, gt.z)))
        write_mae_table(os.path.join(cfg.out_dir, f"mae_{tag}.tsv"), rows)
        log(f"{tag}: MAE source {rows[0][2]:.4f} target {rows[1][2]:.4f}")
        return {"mae": {r[0]: r[2] for r in rows}}
    recall = {}
    for domain in DOMAINS:
        rows = recall_by_object(nets, ds, anchors, domain)
        recall[domain] = write_recall_table(
            os.path.join(cfg.out_dir, f"recall_{tag}_{domain}.tsv"), rows)
        log(f"{tag}: {domain} mean recall "
            + ("n/a" if recall[domain] is None else f"{recall[domain]:.2f}%"))
    return {"recall": recall}


def _pseudo_cache_path(out_dir, obj_id, round_index):
    return os.path.join(out_dir, f"pseudo_student_obj{obj_id}_round{round_index}.tsv")


def _write_student_round_reports(cfg, ds, round_stats, pseudo):
    """Per-round selection statistics with the recall of the selected
    pseudo labels; ``pseudo[i][r]`` is object i's pose stack of round r,
    the labels its student trained on."""
    for i, rounds in round_stats.items():
        model = ds.objects[i]
        with evaluation_access():
            gt = ds.by_object(i, "target").gt_pose
        rows = []
        for r in rounds:
            recall = None
            if len(r.selected):
                pred = pseudo[i][r.round_index][r.selected]
                recall = average_recall(evaluate_pose(pred, gt[r.selected], model).hit)
            rows.append((r.round_index, r.tau, r.n_candidates, len(r.selected), recall))
        write_round_stats(os.path.join(cfg.out_dir, f"rounds_student_obj{i}.tsv"), rows)


# ---------------------------------------------------------------------------
# train


def _ckpt_path(out_dir, stage, obj_id):
    return os.path.join(out_dir, f"{_STAGE_PREFIX[stage]}_obj{obj_id}.ckpt")


def run_train(cfg: RunConfig, stage, log=print):
    """Train one stage for every object and write its checkpoints and
    reports; returns a summary.  The scalar task runs the same path as one
    object with only the z branch active."""
    if stage not in STAGES:
        raise InvalidArgumentError(f"unknown stage {stage!r}; choose from {STAGES}")
    ds = load_dataset_or_fail(cfg)
    ensure_dir(cfg.out_dir)
    save_config(os.path.join(cfg.out_dir, f"config_{stage}.json"), cfg)
    scalar = ds.kind == "scalar"
    anchors = build_anchors(cfg, scalar=scalar, single=stage == "baseline-regression")
    net_cfg = build_network_config(cfg, ds.obs_dim, anchors, scalar=scalar)
    objective = build_objective(cfg, anchors, stage)
    prefix = _STAGE_PREFIX[stage]
    nets, checkpoints, round_stats, pseudo = {}, [], {}, {}
    for i, model in enumerate(ds.objects):
        source = ds.by_object(i, "source")
        if stage == "student":
            tpath = _ckpt_path(cfg.out_dir, "teacher", i)
            if not os.path.exists(tpath):
                raise DependencyError(f"student stage needs {tpath}; run --stage teacher first")
            teacher, _ = load_checkpoint(tpath, expected_config=net_cfg)
            target = ds.by_object(i, "target")
            pseudo[i] = []

            def sink(r, poses, confidence, _i=i, _ids=target.ids):
                write_pseudo_cache(_pseudo_cache_path(cfg.out_dir, _i, r), _ids, poses,
                                   confidence, r)
                pseudo[_i].append(poses)

            nets[i], round_stats[i] = train_student(
                teacher, source.observation, source.gt_pose, target.observation, anchors,
                model, ds.cam, objective, cfg.train, seed=cfg.seed + 100 + i, label_sink=sink)
            log(f"{stage}: object {i} trained")
        else:
            nets[i] = PoseNetwork(net_cfg, seed=cfg.network.seed + i)
            stats = train_teacher(source.observation, source.gt_pose, nets[i], anchors, model,
                                  ds.cam, objective, cfg.train, seed=cfg.seed + 10 + i)
            write_loss_curve(os.path.join(cfg.out_dir, f"loss_{prefix}_obj{i}.tsv"), stats)
            log(f"{stage}: object {i} trained" + ("" if stats.final_loss is None
                                                  else f", final loss {stats.final_loss:.4f}"))
        path = _ckpt_path(cfg.out_dir, stage, i)
        save_checkpoint(path, nets[i], meta={"stage": stage, "object_id": i,
                                             "kind": ds.kind})
        checkpoints.append(path)
    summary = {"stage": stage, "checkpoints": checkpoints,
               **write_quality_reports(cfg, ds, nets, anchors, prefix, log)}
    if stage == "student":
        if not scalar:
            _write_student_round_reports(cfg, ds, round_stats, pseudo)
        summary["rounds"] = round_stats
    return summary


# ---------------------------------------------------------------------------
# eval


def run_eval(cfg: RunConfig, checkpoint, log=print):
    """Evaluation-only pass of one checkpoint over the configured dataset."""
    ds = load_dataset_or_fail(cfg)
    if not os.path.exists(checkpoint):
        raise DependencyError(f"checkpoint {checkpoint} not found")
    net, meta = load_checkpoint(checkpoint)
    scalar = ds.kind == "scalar"
    anchors = build_anchors(cfg, scalar=scalar,
                            single=meta.get("stage") == "baseline-regression")
    expected = build_network_config(cfg, ds.obs_dim, anchors, scalar=scalar)
    if net.config != expected:
        raise CheckpointIncompatibleError(
            f"checkpoint network {net.config} does not match config-derived {expected}")
    obj = int(meta.get("object_id", 0))
    if not 0 <= obj < len(ds.objects):
        raise CheckpointIncompatibleError(
            f"checkpoint object {obj} is not in the dataset's {len(ds.objects)} objects")
    ensure_dir(cfg.out_dir)
    return {"checkpoint": checkpoint, "object_id": obj,
            **write_quality_reports(cfg, ds, {obj: net}, anchors, "eval", log)}


# ---------------------------------------------------------------------------
# threshold sweep


def run_sweep(cfg: RunConfig, log=print, stage="teacher"):
    """Sweep the selection threshold over teacher pseudo labels.

    For each confidence source (per-branch max probability) and each tau
    of ``SWEEP_TAUS``, report the pooled recall of ADD(-S) hits among
    selected samples.
    """
    ds = load_dataset_or_fail(cfg)
    if ds.kind == "scalar":
        raise InvalidArgumentError("threshold sweep expects a pose dataset")
    anchors = build_anchors(cfg)
    ensure_dir(cfg.out_dir)
    # confidence + hit per target sample, pooled over objects
    per_branch_conf = {}
    hits = []
    for i, model in enumerate(ds.objects):
        tpath = _ckpt_path(cfg.out_dir, stage, i)
        if not os.path.exists(tpath):
            raise DependencyError(f"sweep needs {tpath}; run --stage {stage} first")
        net, _ = load_checkpoint(tpath)
        poses, gt, out = predict_split(net, ds, i, "target", anchors)
        hits.append(evaluate_pose(poses, gt, model).hit)
        for branch, values in confidence_scores(out).items():
            per_branch_conf.setdefault(branch, []).append(values)
    hits = np.concatenate(hits)
    curves = {}
    for branch, values in per_branch_conf.items():
        values = np.concatenate(values)
        rows = []
        for tau in SWEEP_TAUS:
            sel = values > tau
            n = int(sel.sum())
            recall = float(100.0 * hits[sel].mean()) if n else None
            rows.append((float(tau), n, recall))
        write_sweep(os.path.join(cfg.out_dir, f"sweep_{branch}.tsv"), rows)
        curves[branch] = rows
        log(f"sweep: {branch}: {sum(1 for r in rows if r[2] is not None)} nonempty taus")
    return curves
