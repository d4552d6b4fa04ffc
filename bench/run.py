#!/usr/bin/env python3
"""Benchmark of the poseadapt command-line pipeline.

    python3 bench/run.py --workload adapt-3obj --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and drives ``python3 -m
poseadapt.cli`` from ``src/`` as a user would: a closed loop with one
client, each step its own process, started when the previous one exits.
The pipeline is repeated until ``--seconds`` are spent; pipeline
timings are means over the repeats, set-up time a median.  ``--trace 1``
also runs each pipeline twice in-process, once plain and once with the
span wrappers of ``tracing.py``, and reports per-layer numbers instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for every workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

SETUP_REPS = 2       # extra gen-data runs before the loop, for the setup_s median
MIN_ITERATIONS = 2   # the determinism check compares at least two pipelines


@dataclass(frozen=True)
class Workload:
    """Sizes and steps of one workload; README.md says why each exists."""

    data: dict
    train: dict
    steps: tuple          # CLI arguments; "{out}" is the run directory
    scalar: bool = False


TEACHER = ("train", "--stage", "teacher")
STUDENT = ("train", "--stage", "student")

WORKLOADS = {
    "adapt-3obj": Workload(
        data={"n_source": 600, "n_target": 300},
        train={"teacher_epochs": 6, "rounds": 2, "student_epochs": 2},
        steps=(("gen-data",), TEACHER, STUDENT,
               ("eval", "--checkpoint", "{out}/student_obj1.ckpt"), ("sweep-threshold",))),
    "scalar-adapt": Workload(
        data={"n_source": 3000, "n_target": 1500},
        train={"teacher_epochs": 2, "rounds": 2, "student_epochs": 1},
        steps=(("gen-data",), TEACHER, STUDENT,
               ("eval", "--checkpoint", "{out}/student_obj0.ckpt")),
        scalar=True),
}

# --tiny: every workload shrunk to a few samples, for the smoke test
TINY = {"data": {"n_source": 48, "n_target": 24},
        "train": {"teacher_epochs": 1, "student_epochs": 1}}

END_TO_END = {
    "setup_s": "s", "train_s": "s", "total_s": "s",
    "train_samples_per_s": "1/s", "peak_rss_mb": "MB",
    "final_train_loss": "loss",
}

PER_LAYER = {
    "autodiff.backward_s": "s", "autodiff.backward_calls": "count",
    "network.forward_s": "s", "network.adam_step_s": "s",
    "losses.total_objective_s": "s", "losses.regression_s": "s",
    "losses.cls_s": "s", "losses.ctc_s": "s",
    "losses.prepare_batch_supervision_s": "s", "losses.resolve_symmetric_gt_s": "s",
    "geometry.closest_symmetric_rotation_calls": "count",
    "labeling.nearest_anchors_calls": "count",
    "selftrain.step_ms_p50": "ms", "selftrain.step_ms_p95": "ms",
    "selftrain.train_steps": "count", "selftrain.pseudo_label_s": "s",
    "selftrain.pseudo_selected": "count",
    "metrics.evaluate_pose_s": "s", "metrics.evaluate_pose_calls": "count",
    "metrics.predict_poses_s": "s", "geometry.compose_pose_calls": "count",
    "synth.make_dataset_s": "s", "synth.save_dataset_s": "s",
    "synth.load_dataset_s": "s", "synth.load_dataset_calls": "count",
    "synth.dataset_bytes": "bytes",
    "network.save_checkpoint_s": "s", "network.load_checkpoint_s": "s",
    "reports.write_s": "s", "experiment.self_s": "s",
    "cli.startup_s": "s", "cli.eval_s": "s", "cli.cpu_s": "s",
    "trace.overhead_s": "s",
    "quality.target_add_rel": "ratio",
    "quality.source_mae": "m", "quality.target_mae": "m",
    "quality.source_recall_pct": "%", "quality.target_recall_pct": "%",
}


# ---------------------------------------------------------------------------
# environment


def environment():
    """Interpreter, numpy and BLAS versions, BLAS threads and CPU count.
    Threads are recorded, never pinned."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _openblas_threads(np), "nproc": os.cpu_count()}


def _openblas_threads(np):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# one CLI step


@dataclass
class Step:
    command: str          # "gen-data", "train", "eval" or "sweep-threshold"
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str = ""


def run_subprocess(argv, log_path):
    """One step in its own interpreter; wall-clock, CPU and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "poseadapt.cli", *argv],
                                cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no step running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    step = Step(argv[0], wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        step.error = f"exit {proc.returncode}: {Path(log_path).read_text().strip()[-300:]}"
    return step


def run_inprocess(argv, log_path):
    """One step as a call to cli.main in this process."""
    from poseadapt import cli
    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as e:  # report the failed step and keep benchmarking
            code = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
    return Step(argv[0], wall, error="" if code == 0 else f"exit {code}")


# ---------------------------------------------------------------------------
# expected outputs of each step


def expected_outputs(step_args, n_objects, scalar, rounds):
    command = step_args[0]
    if command == "gen-data":
        return ["dataset.txt"]
    if command == "eval":
        return ["mae_eval.tsv"] if scalar else ["recall_eval_source.tsv", "recall_eval_target.tsv"]
    if command == "sweep-threshold":
        return [f"sweep_{b}.tsv" for b in ("rot", "vx", "vy", "z")]
    stage = step_args[2]
    files = [f"{stage}_obj{i}.ckpt" for i in range(n_objects)]
    files += [f"mae_{stage}.tsv"] if scalar else [f"recall_{stage}_{d}.tsv"
                                                  for d in ("source", "target")]
    if stage == "teacher":
        files += [f"loss_teacher_obj{i}.tsv" for i in range(n_objects)]
    else:
        files += [f"pseudo_student_obj{i}_round{r}.tsv"
                  for i in range(n_objects) for r in range(rounds)]
        if not scalar:
            files += [f"rounds_student_obj{i}.tsv" for i in range(n_objects)]
    return files


def read_tsv(path):
    """Header and rows of a report; every cell after the first must be a
    finite number or the absent marker '-'."""
    lines = Path(path).read_text().splitlines()
    header, rows = lines[0].split("\t"), [line.split("\t") for line in lines[1:]]
    if not rows:
        raise ValueError("no rows")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row[:2]} has {len(row)} cells, header {len(header)}")
        for cell in row[1:]:
            if cell != "-" and not math.isfinite(float(cell)):
                raise ValueError(f"non-finite cell {cell!r}")
    return header, rows


def column(path, name):
    header, rows = read_tsv(path)
    return [row[header.index(name)] for row in rows]


def check_output(path):
    """Raise if the report or checkpoint at path is missing or unreadable."""
    import numpy as np
    from poseadapt.network import load_checkpoint
    name = path.name
    if name.endswith(".ckpt"):
        net = load_checkpoint(str(path))[0]
        if not all(np.isfinite(p).all() for p in net.state_arrays().values()):
            raise ValueError("non-finite parameters")
    elif name == "dataset.txt":
        with open(path) as f:
            if json.loads(f.readline()).get("format") != "poseadapt-dataset":
                raise ValueError("not a dataset file")
    else:
        header, rows = read_tsv(path)
        key = {"loss": "total", "recall": "recall_pct", "mae": "mae"}.get(name.split("_")[0])
        if key and rows[-1][header.index(key)] == "-":
            raise ValueError(f"no {key} in the last row")


# ---------------------------------------------------------------------------
# one pipeline


@dataclass
class Pipeline:
    steps: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    digest: str = ""

    def wall(self, *commands):
        return sum(s.wall for s in self.steps if not commands or s.command in commands)


def config_dict(wl, out, tiny):
    data, train = dict(wl.data), dict(wl.train)
    if tiny:
        data.update(TINY["data"])
        train.update(TINY["train"])
    return {"data": data, "train": train, "out_dir": str(out)}


def n_objects(wl, rc):
    return 1 if wl.scalar else len(rc.data.object_kinds)


def run_pipeline(wl, seed, out, runner, tiny, steps=None, tracer=None, op=""):
    """Run the workload's steps in order into ``out``; stop at the first
    failed step.  Each step's outputs are checked outside its timing."""
    from poseadapt.config import config_from_dict
    from poseadapt.errors import PoseAdaptError
    out.mkdir(parents=True)
    cfg = config_dict(wl, out, tiny)
    cfg_path = out / "bench_config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = config_from_dict(cfg)
    p = Pipeline()
    for k, step_args in enumerate(steps or wl.steps):
        argv = [a.format(out=out) for a in step_args]
        argv += ["--config", str(cfg_path), "--seed", str(seed)]
        argv += ["--scalar-task"] if wl.scalar else []
        if tracer is not None:
            tracer.op = f"{op}{k}:{step_args[0]}"
        step = runner(argv, out / f"step{k}.log")
        p.steps.append(step)
        if not step.error:
            for name in expected_outputs(step_args, n_objects(wl, rc), wl.scalar,
                                         rc.train.rounds):
                try:
                    check_output(out / name)
                except (OSError, ValueError, KeyError, IndexError, PoseAdaptError) as e:
                    step.error = f"{name}: {type(e).__name__}: {e}"
                    break
        if step.error:
            p.errors.append(f"{' '.join(step_args)}: {step.error}")
            break
    p.digest = output_digest(out)
    return p


def output_digest(out):
    """SHA-256 over every output except configs and logs, which hold paths."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix in (".ckpt", ".tsv") or path.name == "dataset.txt":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# quality, computed after timing from the last stage's checkpoints


def quality(out, wl):
    """Error and recall of the last stage over both splits: mean ADD
    (ADD-S for symmetric objects) over the object diameter on the target
    split, mean absolute depth error (the scalar, on the scalar task) and
    recall, averaged over objects as the CLI's recall tables do."""
    import numpy as np
    from poseadapt.config import load_config
    from poseadapt.experiment import build_anchors
    from poseadapt.metrics import evaluate_pose, predict_poses
    from poseadapt.network import load_checkpoint
    from poseadapt.synth import evaluation_access, load_dataset

    cfg = load_config(str(out / "config.json"))
    ds = load_dataset(str(out / "dataset.txt"))
    anchors = build_anchors(cfg, scalar=wl.scalar)
    rel, depth_err, recall = [], {"source": [], "target": []}, {"source": [], "target": []}
    for i, model in enumerate(ds.objects):
        net = load_checkpoint(str(out / f"student_obj{i}.ckpt"))[0]
        for domain in ("source", "target"):
            samples = ds.by_object(i, domain)
            poses, _ = predict_poses(net, np.stack([s.observation for s in samples]),
                                     anchors, ds.cam)
            with evaluation_access():
                records = [evaluate_pose(p, s.gt_pose, model) for p, s in zip(poses, samples)]
                depth_err[domain] += [abs(p.z - s.gt_pose.z) for p, s in zip(poses, samples)]
            recall[domain].append(100.0 * float(np.mean([r.hit for r in records])))
            if domain == "target":
                rel += [(r.add_s if model.is_symmetric else r.add) / model.diameter
                        for r in records]
    q = {"target_add_rel": float(np.mean(rel))}
    for domain in ("source", "target"):
        q[f"{domain}_mae"] = float(np.mean(depth_err[domain]))
        q[f"{domain}_recall_pct"] = float(np.mean(recall[domain]))
    return q


def quality_problems(out, wl, q):
    """The recomputed quality must agree with the reports the CLI wrote."""
    problems = [f"{k} is not finite" for k, v in q.items() if not math.isfinite(v)]
    stage = "student"
    if wl.scalar:
        reported = dict(zip(column(out / f"mae_{stage}.tsv", "domain"),
                            column(out / f"mae_{stage}.tsv", "mae")))
        pairs = [(q[f"{d}_mae"], reported[d]) for d in ("source", "target")]
    else:
        pairs = [(q[f"{d}_recall_pct"], column(out / f"recall_{stage}_{d}.tsv", "recall_pct")[-1])
                 for d in ("source", "target")]
    for mine, theirs in pairs:
        if abs(mine - float(theirs)) > 1e-5 * max(1.0, abs(mine)):
            problems.append(f"recomputed {mine} differs from reported {theirs}")
    return problems


def final_train_loss(out, n_objects):
    return statistics.fmean(float(column(out / f"loss_teacher_obj{i}.tsv", "total")[-1])
                            for i in range(n_objects))


def train_samples(out, wl, rc):
    """Training samples processed by all train steps: entries x epochs,
    summed over objects and rounds, from the config and the round reports
    (from the pseudo-label caches on the scalar task, which has none)."""
    from poseadapt.selftrain import threshold_schedule
    t = rc.train
    n = rc.data.n_source * t.teacher_epochs
    selected = 0
    for i in range(n_objects(wl, rc)):
        if wl.scalar:
            st = t.selftrain_config()
            for r in range(t.rounds):
                conf = column(out / f"pseudo_student_obj{i}_round{r}.tsv", "confidence")
                selected += sum(float(c) > threshold_schedule(r, st) for c in conf)
        else:
            selected += sum(int(v) for v in column(out / f"rounds_student_obj{i}.tsv", "selected"))
    return n + t.student_epochs * (t.rounds * rc.data.n_source + selected)


# ---------------------------------------------------------------------------
# per-layer numbers from spans


# spans whose total time (metric "<name>_s") or call count ("<name>_calls")
# is reported as it is
TIMED = ("autodiff.backward", "network.forward", "network.adam_step",
         "losses.total_objective", "losses.regression", "losses.cls", "losses.ctc",
         "losses.prepare_batch_supervision", "losses.resolve_symmetric_gt",
         "selftrain.pseudo_label", "metrics.evaluate_pose", "metrics.predict_poses",
         "synth.make_dataset", "synth.save_dataset", "synth.load_dataset",
         "network.save_checkpoint", "network.load_checkpoint", "reports.write")
COUNTED = ("autodiff.backward", "geometry.closest_symmetric_rotation",
           "metrics.evaluate_pose", "geometry.compose_pose", "synth.load_dataset")


def layer_metrics(spans):
    """Per-layer sums over the spans of one traced pipeline: inclusive
    time, calls, and the counts that need more than a span name."""
    from tracing import self_times
    total, calls = {}, {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    loads = [s for s in spans if s.name == "synth.load_dataset"]
    m = {f"{name}_s": total.get(name, 0.0) for name in TIMED}
    m.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED})
    m.update({
        # per-batch calls only; the per-sample supervision cache also calls it
        "labeling.nearest_anchors_calls": sum(
            1 for s in spans if s.name == "labeling.nearest_anchors"
            and s.parent is not None and by_id[s.parent].name == "losses.regression"),
        "selftrain.train_steps": calls.get("network.adam_step", 0),
        "selftrain.pseudo_selected": sum(s.attrs.get("selected", 0) for s in spans),
        "synth.dataset_bytes": loads[0].attrs["bytes"] if loads else 0,
        "experiment.self_s": sum(own[s.id] for s in spans if s.name.startswith("experiment.")),
    })
    return m


# ---------------------------------------------------------------------------
# a run


def metric(value, unit):
    return {"value": value, "unit": unit}


def benchmark(wl, seed, seconds, trace, tiny, work):
    t_start = time.perf_counter()
    errors, digests, steps = [], set(), []

    def record(p):
        steps.extend(p.steps)
        errors.extend(p.errors)
        digests.add(p.digest)
        return p

    setup_walls = []
    if not trace:
        for k in range(SETUP_REPS):
            p = record(run_pipeline(wl, seed, work / f"setup{k}", run_subprocess, tiny,
                                    steps=wl.steps[:1]))
            setup_walls.append(p.wall())
            shutil.rmtree(work / f"setup{k}")
    dataset_digests = set(digests)
    digests.clear()

    from tracing import Tracer, installed
    tracer = Tracer() if trace else None
    pipelines, plain, traced = [], [], []
    while True:
        k = len(pipelines)
        t_iter = time.perf_counter()
        pipelines.append(record(run_pipeline(wl, seed, work / f"it{k}", run_subprocess, tiny)))
        if trace:
            plain.append(record(run_pipeline(wl, seed, work / f"it{k}p", run_inprocess, tiny)))
            with installed(tracer):
                traced.append(record(run_pipeline(wl, seed, work / f"it{k}t", run_inprocess,
                                                  tiny, tracer=tracer, op=f"{k}.")))
            for suffix in ("p", "t"):
                shutil.rmtree(work / f"it{k}{suffix}")
        if k > 0:
            shutil.rmtree(work / f"it{k}")
        if errors:
            break
        now = time.perf_counter()
        if len(pipelines) >= (1 if trace else MIN_ITERATIONS) \
                and now - t_start + (now - t_iter) > seconds:
            break

    first = work / "it0"
    deterministic = len(digests) == 1 and len(dataset_digests) <= 1
    if not deterministic:
        errors.append(f"outputs of one seed differ between runs: {len(digests)} digests")
    correct = not errors
    metrics = {}
    if correct:
        from poseadapt.config import config_from_dict
        rc = config_from_dict(config_dict(wl, first, tiny))
        q = quality(first, wl)
        errors.extend(quality_problems(first, wl, q))
        correct = not errors
        if trace:
            metrics = traced_metrics(pipelines, plain, traced, tracer.spans, q)
        else:
            # Pipeline timings are means over the run: on a shared 2-vCPU
            # VM the CPU speed flips between levels within a run, and over
            # ten runs the median of ~12 pipelines spread twice as far as
            # their mean.
            train_s = statistics.fmean(p.wall("train") for p in pipelines)
            values = {
                "setup_s": statistics.median(setup_walls + [p.wall("gen-data") for p in pipelines]),
                "train_s": train_s,
                "total_s": statistics.fmean(p.wall() for p in pipelines),
                "train_samples_per_s": train_samples(first, wl, rc) / train_s,
                "peak_rss_mb": statistics.median(max(s.rss_mb for s in p.steps)
                                                 for p in pipelines),
                "final_train_loss": final_train_loss(first, n_objects(wl, rc)),
            }
            metrics = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return {"correct": correct, "attempted": len(steps),
            "failed": sum(1 for s in steps if s.error), "metrics": metrics}, tracer


def traced_metrics(pipelines, plain, traced, spans, q):
    """Per-layer medians over the traced pipelines; step percentiles pooled."""
    from tracing import step_times
    per_iteration = [layer_metrics([s for s in spans if s.op.startswith(f"{k}.")])
                     for k in range(len(traced))]
    values = {}
    for name, first in per_iteration[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        values[name] = median(m[name] for m in per_iteration)
    steps_ms = [1000.0 * d for d in step_times(spans)]
    values["selftrain.step_ms_p50"] = statistics.median(steps_ms)
    values["selftrain.step_ms_p95"] = statistics.quantiles(steps_ms, n=20, method="inclusive")[18]
    values["cli.startup_s"] = statistics.median(
        a.wall() - b.wall() for a, b in zip(pipelines, plain))
    values["cli.eval_s"] = statistics.median(p.wall("eval", "sweep-threshold") for p in pipelines)
    values["cli.cpu_s"] = statistics.median(sum(s.cpu for s in p.steps) for p in pipelines)
    values["trace.overhead_s"] = statistics.median(
        t.wall() - b.wall() for t, b in zip(traced, plain))
    values.update({f"quality.{k}": v for k, v in q.items()})
    return {k: metric(values[k], PER_LAYER[k]) for k in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a few samples (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "poseadapt" / "cli.py").is_file():
        print(f"error: no poseadapt sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    # a terminated benchmark still stops its running step and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    work = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment()
    try:
        result, tracer = benchmark(wl, args.seed, args.seconds, bool(args.trace),
                                   args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        path = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "environment": env})
        print(f"spans: {path.relative_to(ROOT)}")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
