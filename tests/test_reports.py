"""Report writers: cell formatting, the recall mean, the sweep curve and
write failures."""

import numpy as np
import pytest

from poseadapt import cli
from poseadapt.errors import PoseAdaptError
from poseadapt.geometry import Pose
from poseadapt.reports import _fmt, write_pseudo_cache, write_recall_table, write_sweep


def rows_of(path):
    return [line.split("\t") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("value, text", [
    (None, "-"),
    (0.1, "0.100000"),
    (2.0 / 3.0, "0.666667"),
    (-1e-7, "-0.000000"),
    (7, "7"),
    ("box", "box"),
])
def test_fmt(value, text):
    """None is absent, floats have six decimals, ints and strings stay."""
    assert _fmt(value) == text


def test_recall_mean_skips_absent_rows_and_sums_counts(tmp_path):
    path = tmp_path / "recall.tsv"
    mean = write_recall_table(path, [("box", 4, 50.0), ("cylinder", 0, None), ("blob", 6, 25.0)])
    assert mean == 37.5
    assert rows_of(path) == [["object", "count", "recall_pct"], ["box", "4", "50.000000"],
                             ["cylinder", "0", "-"], ["blob", "6", "25.000000"],
                             ["mean", "10", "37.500000"]]


def test_recall_mean_is_none_when_no_row_has_a_recall(tmp_path):
    path = tmp_path / "recall.tsv"
    assert write_recall_table(path, [("box", 0, None), ("blob", 0, None)]) is None
    assert rows_of(path)[-1] == ["mean", "0", "-"]


def test_sweep_curve_keeps_the_rows_with_a_recall(tmp_path):
    path = tmp_path / "sweep_z.tsv"
    write_sweep(path, [(0.1, 5, 40.0), (0.5, 0, None), (0.9, 1, 100.0)])
    assert rows_of(path) == [["tau", "selected", "recall_pct"], ["0.100000", "5", "40.000000"],
                             ["0.500000", "0", "-"], ["0.900000", "1", "100.000000"]]
    assert rows_of(tmp_path / "sweep_z_curve.tsv") == [
        ["tau", "recall_pct"], ["0.100000", "40.000000"], ["0.900000", "100.000000"]]


def test_unwritable_path_is_an_io_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(PoseAdaptError, match="cannot write report") as info:
        write_recall_table(tmp_path / "file" / "recall.tsv", [("box", 1, 0.0)])
    # no other exit code claims it, so the CLI exits with EXIT_IO
    assert not any(isinstance(info.value, cls) for cls, _ in cli.EXIT_CODES)


def test_pseudo_cache_refuses_inputs_of_different_lengths(tmp_path):
    poses = Pose(np.tile(np.eye(3), (2, 1, 1)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        write_pseudo_cache(tmp_path / "cache.tsv", ["t000000", "t000001", "t000002"], poses,
                           np.array([0.5, 0.25]), round_index=0)
    assert not (tmp_path / "cache.tsv").exists()
