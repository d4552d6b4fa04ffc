"""``experiment.run_train`` in worker processes: the same files, bytes and
lines as the serial run, the same failure, and no process left over."""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from poseadapt import cli, experiment
from poseadapt.config import config_from_dict
from poseadapt.errors import TrainingFailureError
from poseadapt.synth import load_dataset

from test_cli import TINY, outputs, write_config

THREE = dict(TINY, data=dict(TINY["data"], object_kinds=["box", "cylinder", "blob"]), seed=3)
STAGES = ("teacher", "baseline-regression", "student")


@pytest.fixture
def pools(monkeypatch):
    """The start method of each multiprocessing context asked for."""
    asked, get_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: asked.append(method) or get_context(method))
    return asked


def train_stages(out, workers, capsys, scalar=False):
    """Every checkpoint and report of the three stages, and their stdout."""
    cfg = config_from_dict(dict(THREE, out_dir=str(out), scalar_task=scalar))
    experiment.run_gen_data(cfg)
    capsys.readouterr()
    for stage in STAGES:
        experiment.run_train(cfg, stage, workers)
    files = {k: v for k, v in outputs(out).items() if k != "dataset.txt"}
    return files, capsys.readouterr().out


def test_workers_write_the_serial_bytes_and_lines(tmp_path, capsys, pools):
    serial = train_stages(tmp_path / "serial", 1, capsys)
    assert pools == []
    forked = train_stages(tmp_path / "forked", 2, capsys)
    assert pools == ["fork"] * len(STAGES)
    assert len(serial[0]) == 3 * 3 + 2 * 3 + 2 * 3 + 3 + 3 * 2
    assert forked == serial
    assert serial[1].count("\n") == 3 * (3 + 2)
    assert multiprocessing.active_children() == []


def test_the_scalar_task_starts_no_pool(tmp_path, capsys, pools):
    files, _ = train_stages(tmp_path / "scalar", 2, capsys, scalar=True)
    assert pools == []
    assert "student_obj0.ckpt" in files and "mae_student.tsv" in files


def fail_object_1(monkeypatch, out, fail):
    """Have the teacher of object 1 of the dataset in ``out`` call ``fail``;
    forked workers inherit the patch."""
    failing = load_dataset(str(out / "dataset.txt")).by_object(1, "source").observation
    real = experiment.train_teacher

    def train_teacher(obs, *args, **kwargs):
        if np.array_equal(obs, failing):
            fail()
        return real(obs, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_teacher", train_teacher)


def diverge():
    raise TrainingFailureError("training diverged: object 1")


def test_a_failing_object_stops_the_stage_as_in_a_serial_run(tmp_path, capsys, monkeypatch):
    """Object 1 fails: object 0 is written, objects 1 and 2 and the recall
    tables are not, and the command prints one line and exits 5, whether
    one process or two train."""
    runs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        argv = ["--config", write_config(tmp_path, out.name, dict(THREE, out_dir=str(out)))]
        assert cli.main(["gen-data", *argv]) == 0
        monkeypatch.undo()
        fail_object_1(monkeypatch, out, diverge)
        capsys.readouterr()
        code = cli.main(["train", "--stage", "teacher", *argv], workers=workers)
        runs[workers] = code, sorted(outputs(out)), capsys.readouterr()
        assert multiprocessing.active_children() == []
    assert runs[2] == runs[1]
    code, names, (stdout, stderr) = runs[1]
    assert code == cli.EXIT_TRAINING
    assert names == ["dataset.txt", "loss_teacher_obj0.tsv", "teacher_obj0.ckpt"]
    assert stdout.startswith("teacher: object 0 trained") and stdout.count("\n") == 1
    assert stderr == "error: training diverged: object 1\n"
    with pytest.raises(TrainingFailureError, match="object 1"):
        experiment.run_train(config_from_dict(dict(THREE, out_dir=str(tmp_path / "w2"))),
                             "teacher", workers=2)
    assert multiprocessing.active_children() == []


def test_a_killed_worker_fails_the_stage(tmp_path, capsys, monkeypatch):
    """A worker that dies, as at the hands of the out-of-memory killer,
    fails the stage as a training failure: one line and exit 5.  The stage
    does not wait for its result for ever."""
    argv = ["--config", write_config(tmp_path, "run", dict(THREE, out_dir=str(tmp_path)))]
    assert cli.main(["gen-data", *argv]) == 0
    fail_object_1(monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL))
    capsys.readouterr()
    assert cli.main(["train", "--stage", "teacher", *argv], workers=2) == cli.EXIT_TRAINING
    err = capsys.readouterr().err
    assert err.startswith("error: a training worker died: ") and err.count("\n") == 1, err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "recall_teacher_source.tsv").exists()
