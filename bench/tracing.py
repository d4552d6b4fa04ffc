"""In-process span tracer for the poseadapt pipeline.

``installed(tracer)`` wraps the public functions of each poseadapt module
under the name its caller looks up (``poseadapt.selftrain.total_objective``
is the name ``train_supervised`` calls), plus three methods on their
classes.  Each call records a span: name, start, end, parent span and the
operation (one CLI step) it belongs to.  Spans stay in memory until the
benchmark writes them out.  The program itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

# (module, attribute or Class.method, span name).  A span name is
# "<module>.<layer>"; two entries may share one name when one layer is
# reached under two lookups.
PATCHES = (
    ("poseadapt.experiment", "run_gen_data", "experiment.gen_data"),
    ("poseadapt.experiment", "run_train", "experiment.train"),
    ("poseadapt.experiment", "run_eval", "experiment.eval"),
    ("poseadapt.experiment", "run_sweep", "experiment.sweep"),
    ("poseadapt.experiment", "make_dataset", "synth.make_dataset"),
    ("poseadapt.experiment", "make_scalar_task", "synth.make_dataset"),
    ("poseadapt.experiment", "save_dataset", "synth.save_dataset"),
    ("poseadapt.experiment", "load_dataset", "synth.load_dataset"),
    ("poseadapt.experiment", "save_checkpoint", "network.save_checkpoint"),
    ("poseadapt.experiment", "load_checkpoint", "network.load_checkpoint"),
    ("poseadapt.experiment", "train_teacher", "selftrain.train_teacher"),
    ("poseadapt.experiment", "train_student", "selftrain.train_student"),
    ("poseadapt.experiment", "predict_poses", "metrics.predict_poses"),
    ("poseadapt.experiment", "evaluate_pose", "metrics.evaluate_pose"),
    ("poseadapt.selftrain", "train_supervised", "selftrain.train_supervised"),
    ("poseadapt.selftrain", "pseudo_label", "selftrain.pseudo_label"),
    ("poseadapt.selftrain", "select_samples", "selftrain.select_samples"),
    ("poseadapt.selftrain", "predict_poses", "metrics.predict_poses"),
    ("poseadapt.selftrain", "prepare_batch_supervision", "losses.prepare_batch_supervision"),
    ("poseadapt.selftrain", "total_objective", "losses.total_objective"),
    ("poseadapt.losses", "regression_loss_batch", "losses.regression"),
    ("poseadapt.losses", "classification_loss", "losses.cls"),
    ("poseadapt.losses", "batch_feature_graph", "losses.ctc"),
    ("poseadapt.losses", "target_correlation_loss", "losses.ctc"),
    ("poseadapt.losses", "resolve_symmetric_gt", "losses.resolve_symmetric_gt"),
    ("poseadapt.losses", "closest_symmetric_rotation", "geometry.closest_symmetric_rotation"),
    ("poseadapt.losses", "nearest_anchors", "labeling.nearest_anchors"),
    ("poseadapt.metrics", "compose_pose", "geometry.compose_pose"),
    ("poseadapt.reports", "_write_rows", "reports.write"),
    ("poseadapt.autodiff", "Tensor.backward", "autodiff.backward"),
    ("poseadapt.network", "PoseNetwork.forward", "network.forward"),
    ("poseadapt.network", "Adam.step", "network.adam_step"),
)


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread in call order."""

    def __init__(self):
        self.spans = []
        self.op = ""
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _annotate(span, args, result)
            return result
        return traced

    def write(self, path, header):
        """One JSON line of ``header``, then one line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "op": s.op,
                                    "parent": s.parent, "start": s.start,
                                    "end": s.end, **s.attrs}) + "\n")


def _annotate(span, args, result):
    """Counts that only the call's arguments or result can tell."""
    if span.name == "selftrain.select_samples":
        span.attrs["selected"] = len(result)
    elif span.name == "synth.load_dataset":
        span.attrs["bytes"] = os.path.getsize(args[0])


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def installed(tracer):
    """Patch every PATCHES entry for the duration of the block."""
    saved = []
    try:
        for module, attr, span_name in PATCHES:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# reading spans back


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def step_times(spans):
    """Durations of training steps: from a training forward pass to the end
    of the Adam step that follows it inside the same train_supervised."""
    by_id = {s.id: s for s in spans}
    started, steps = {}, []
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or parent.name != "selftrain.train_supervised":
            continue
        if s.name == "network.forward":
            started[parent.id] = s.start
        elif s.name == "network.adam_step" and parent.id in started:
            steps.append(s.end - started.pop(parent.id))
    return steps


def check_nesting(spans):
    """Problems with the span tree: a child outside its parent's interval
    or an interval that ends before it starts.  Empty when spans nest."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        parent = by_id.get(s.parent)
        if parent is not None and not (parent.start <= s.start and s.end <= parent.end):
            problems.append(f"span {s.id} {s.name} lies outside parent {parent.id} {parent.name}")
    return problems
