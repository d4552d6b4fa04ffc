"""Delimited-text report writers with byte-deterministic formatting."""

from __future__ import annotations

import os

from .errors import PoseAdaptError

ABSENT = "-"


def _fmt(x):
    if x is None:
        return ABSENT
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _write_rows(path, header, rows):
    lines = ["\t".join(header)]
    lines.extend("\t".join(_fmt(v) for v in row) for row in rows)
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise PoseAdaptError(f"cannot write report {path}: {e}") from e


def write_recall_table(path, rows):
    """Per-object recall plus the mean over objects; returns that mean,
    None when no object has a recall.

    ``rows`` is a list of (object_name, count, recall_percent_or_None).
    """
    out = list(rows)
    recalls = [r[2] for r in out if r[2] is not None]
    mean = sum(recalls) / len(recalls) if recalls else None
    out.append(("mean", sum(r[1] for r in out), mean))
    _write_rows(path, ("object", "count", "recall_pct"), out)
    return mean


def write_mae_table(path, rows):
    """Scalar-task error per split: (domain, count, mean absolute error)."""
    _write_rows(path, ("domain", "count", "mae"), rows)


def write_round_stats(path, rows):
    """Self-training per-round stats: tau, selected count, selected recall."""
    _write_rows(path, ("round", "tau", "candidates", "selected", "selected_recall_pct"),
                rows)


def write_sweep(path, rows):
    """Threshold sweep for one confidence source: the table of (tau, count,
    recall|None) rows at ``path``, and next to it (``<name>_curve.tsv``)
    the curve of (tau, recall) over the taus with a recall."""
    _write_rows(path, ("tau", "selected", "recall_pct"), rows)
    _write_rows(os.path.splitext(path)[0] + "_curve.tsv", ("tau", "recall_pct"),
                [(tau, recall) for tau, _, recall in rows if recall is not None])


def write_loss_curve(path, stats):
    """Per-epoch total/cls/reg/corr losses from a TrainStats."""
    _write_rows(path, ("epoch", "total", "cls", "reg", "corr"),
                [(i, *row) for i, row in enumerate(stats.epochs)])


def write_pseudo_cache(path, ids, poses, confidence, round_index):
    """Pseudo-label cache, one row per sample id: rotation (row-major),
    translation, confidence."""
    rows = [(sid, *r, *t, c, round_index) for sid, r, t, c in
            zip(ids, poses.rotation.reshape(-1, 9).tolist(), poses.translation.tolist(),
                confidence.tolist(), strict=True)]
    header = ("sample_id", *[f"r{i}{j}" for i in range(3) for j in range(3)],
              "tx", "ty", "tz", "confidence", "round")
    _write_rows(path, header, rows)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
