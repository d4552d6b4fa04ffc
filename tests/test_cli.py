"""Command-line pipeline: every stage end to end, determinism, exit codes."""

import base64
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from poseadapt import cli
from poseadapt.config import config_from_dict
from poseadapt.errors import ConfigError
from poseadapt.experiment import SWEEP_TAUS, build_anchors, build_camera, build_stage
from poseadapt.geometry import AnchorSet
from poseadapt.losses import build_target_graph
from poseadapt.network import load_checkpoint, save_checkpoint
from poseadapt.synth import make_dataset, make_object, make_scalar_task

from helpers import (
    SAMPLE_RANGES,
    edit_block,
    encode_floats,
    per_sample_records,
    version_3_record,
    version_4_header,
    version_4_record,
    write_v1_checkpoint,
    write_v2_checkpoint,
)

TINY = {
    "anchors": {"n_rot": 4, "n_vx": 3, "n_vy": 3, "n_z": 4},
    "scores": {"translation": [0.6, 0.2, 3]},
    "network": {"feature_dim": 8, "encoder_hidden": [8], "head_hidden": 4},
    "data": {"n_source": 12, "n_target": 6, "object_kinds": ["box", "cylinder"],
             "n_points": 8, "scalar_bins": 4},
    "train": {"teacher_epochs": 1, "rounds": 2, "student_epochs": 1,
              "tau_start": 0.3, "tau_end": 0.05},
}
BRANCHES = ("rot", "vx", "vy", "z")
DOMAINS = ("source", "target")


def write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_pipeline(tmp_path, name, scalar, cfg=TINY):
    """gen-data, the three train stages, eval and sweep-threshold into one
    run directory; returns the directory and each command's exit code."""
    out = tmp_path / name
    base = ["--config", write_config(tmp_path, name, dict(cfg, out_dir=str(out))),
            "--seed", "3"] + (["--scalar-task"] if scalar else [])
    steps = [["gen-data"]]
    steps += [["train", "--stage", s] for s in ("teacher", "baseline-regression", "student")]
    steps += [["eval", "--checkpoint", str(out / "student_obj0.ckpt")], ["sweep-threshold"]]
    return out, [cli.main(step + base) for step in steps]


def expected_reports(n_objects, scalar):
    prefixes = ("teacher", "baseline", "student")
    names = {f"{p}_obj{i}.ckpt" for p in prefixes for i in range(n_objects)}
    names |= {f"loss_{p}_obj{i}.tsv" for p in prefixes[:2] for i in range(n_objects)}
    names |= {f"pseudo_student_obj{i}_round{r}.tsv" for i in range(n_objects) for r in (0, 1)}
    if scalar:
        return names | {f"mae_{p}.tsv" for p in prefixes + ("eval",)}
    names |= {f"recall_{p}_{d}.tsv" for p in prefixes + ("eval",) for d in DOMAINS}
    names |= {f"rounds_student_obj{i}.tsv" for i in range(n_objects)}
    return names | {f"sweep_{b}{c}.tsv" for b in BRANCHES for c in ("", "_curve")}


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".ckpt", ".tsv") or p.name == "dataset.txt"}


@pytest.mark.parametrize("scalar", [False, True], ids=["pose", "scalar"])
def test_pipeline_writes_every_report_and_repeats_byte_identically(tmp_path, capsys, scalar):
    out, codes = run_pipeline(tmp_path, "a", scalar)
    # the threshold sweep is a pose-task tool; the scalar task refuses it
    assert codes == [0] * 5 + [cli.EXIT_CONFIG if scalar else 0]
    first = outputs(out)
    assert set(first) - {"dataset.txt"} == expected_reports(1 if scalar else 2, scalar)
    if not scalar:
        rounds = (out / "rounds_student_obj0.tsv").read_text().splitlines()
        assert rounds[0].split("\t") == ["round", "tau", "candidates", "selected",
                                         "selected_recall_pct"]
        assert len(rounds) == 3
        # each sweep table has one row per tau; its curve keeps the rows with a recall
        for b in BRANCHES:
            table = report_rows(out / f"sweep_{b}.tsv")
            assert [r[0] for r in table] == [f"{t:.6f}" for t in SWEEP_TAUS]
            assert report_rows(out / f"sweep_{b}_curve.tsv") == \
                [[tau, recall] for tau, _, recall in table if recall != "-"]
    again, _ = run_pipeline(tmp_path, "b", scalar)
    assert outputs(again) == first


# SHA-256 over the names and bytes of every checkpoint and TSV of ``golden_run``,
# pinned on the OpenBLAS core ``GOLDEN_CORE``
GOLDEN_DIGEST = "0bdcf26b3de133f8d4ed814ffbcc2fffdb0c775bfca7d0da9cb235f097cbc679"
SCALAR_GOLDEN_DIGEST = "9a3009ebf38b286e7d4e724725f0331564eef8e907b0b91dbec0fbfd5797ada8"
GOLDEN_CORE = "SkylakeX"


def golden_run(tmp_path, scalar=False):
    out = tmp_path / "golden"
    base = ["--config", write_config(tmp_path, "golden", dict(TINY, out_dir=str(out))),
            "--seed", "3"] + (["--scalar-task"] if scalar else [])
    for step in (["gen-data"], ["train", "--stage", "teacher"], ["train", "--stage", "student"]):
        assert cli.main(step + base) == 0
    digest = hashlib.sha256()
    for name, data in outputs(out).items():
        if name != "dataset.txt":
            digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def openblas_core():
    """The name of the OpenBLAS core that numpy's float32 GEMMs run on, or
    None when numpy has no OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*"))
    for path in libs:
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def core_message(digest):
    return (f"digest {digest}: the golden digests were pinned on the OpenBLAS core "
            f"{GOLDEN_CORE}, and this run's core is {openblas_core()}")


def test_tiny_pipeline_matches_its_golden_digest(tmp_path, capsys):
    """The ``TINY`` pose pipeline (gen-data, teacher, student; seed 3)
    writes exactly the checkpoints and reports it always has.

    A change that is meant to keep results (a refactor, a speed-up) must
    keep this digest and ``SCALAR_GOLDEN_DIGEST``.  A change that moves
    results on purpose (a new loss scale, a new gradient order, a method
    change) updates them and says so in CHANGES.md.  The digests hold for
    one numpy and BLAS build and one OpenBLAS core, ``GOLDEN_CORE``;
    another build or core may round differently, and a mismatch names the
    core it ran on."""
    digest = golden_run(tmp_path)
    assert digest == GOLDEN_DIGEST, core_message(digest)


def test_tiny_scalar_pipeline_matches_its_golden_digest(tmp_path, capsys):
    """The same pipeline with ``--scalar-task``: its pseudo-label caches
    are the files the benchmark counts selected rows from."""
    digest = golden_run(tmp_path, scalar=True)
    assert digest == SCALAR_GOLDEN_DIGEST, core_message(digest)


# SHA-256 of the ``TINY`` dataset.txt that gen-data writes with seed 3
DATASET_GOLDEN_DIGEST = "4dc0ab992ce04f36c85b4e679715d9f8f1d90c3894d89bc1f4125e3fa1787ac2"
SCALAR_DATASET_GOLDEN_DIGEST = "cdaffd006f45f418f54a8f264c65af792873b5a1282cd05b125b2593a3048279"
# a run seed of three 32-bit words
LONG_SEED = 2 ** 64 + 5


def gen_tiny_data(tmp_path, scalar, seed=3, **data):
    out = tmp_path / "data"
    cfg = dict(TINY, out_dir=str(out), data=dict(TINY["data"], **data))
    argv = ["gen-data", "--config", write_config(tmp_path, "data", cfg), "--seed", str(seed)]
    assert cli.main(argv + (["--scalar-task"] if scalar else [])) == 0
    return out / "dataset.txt"


@pytest.mark.parametrize("scalar, options, digest", [
    (False, {}, DATASET_GOLDEN_DIGEST),
    (True, {}, SCALAR_DATASET_GOLDEN_DIGEST),
    (False, {"seed": LONG_SEED},
     "db141fdcf98caa8bc2e225d9e7d820b358bbbb38e677705adf1463a91a444e60"),
    (True, {"seed": LONG_SEED},
     "19654da40771d5df262b330c51a8087e3039b2b14f9329ffcb31df2d34603ca4"),
    # three objects over 2 source and 1 target rows: objects with empty splits
    (False, {"n_source": 2, "n_target": 1, "object_kinds": ["box", "cylinder", "blob"]},
     "0ccb366ed83edb60c78d129ff59138eea09b0e51beda356605e3de8d9aa00b60"),
], ids=["pose", "scalar", "pose-long-seed", "scalar-long-seed", "pose-empty-splits"])
def test_tiny_dataset_matches_its_golden_digest(tmp_path, capsys, scalar, options, digest):
    """gen-data writes exactly the dataset file it always has.  A change to
    the file format or to the synthesizer updates these digests and says
    so in CHANGES.md; like ``GOLDEN_DIGEST`` they hold for one numpy build."""
    path = gen_tiny_data(tmp_path, scalar, **options)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("scalar", [False, True], ids=["pose", "scalar"])
def test_dataset_file_is_ascii_with_a_json_header(tmp_path, capsys, scalar):
    """The benchmark's output check opens dataset.txt as text and parses
    its first line as JSON, so the file stays ASCII with the header first."""
    path = gen_tiny_data(tmp_path, scalar)
    assert path.read_bytes().isascii()
    with open(path) as f:
        header = json.loads(f.readline())
    assert isinstance(header, dict) and header["format"] == "poseadapt-dataset"


def report_rows(path):
    return [line.split("\t") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("n_source, n_target", [(1, 3), (2, 1)])
def test_objects_with_empty_splits(tmp_path, capsys, n_source, n_target):
    """Samples go to three objects round-robin, so some objects have no
    source or no target samples.  Every step runs, and an empty split
    reads '-' in the reports."""
    data = dict(TINY["data"], n_source=n_source, n_target=n_target,
                object_kinds=["box", "cylinder", "blob"])
    out, codes = run_pipeline(tmp_path, "run", False, dict(TINY, data=data))
    assert codes == [0] * 6
    counts = {"source": n_source, "target": n_target}
    for domain, n in counts.items():
        for stage in ("teacher", "baseline", "student"):
            rows = report_rows(out / f"recall_{stage}_{domain}.tsv")
            assert [row[1] for row in rows[:3]] == [str(int(i < n)) for i in range(3)]
            assert all(row[2] == "-" for row in rows[n:3])
    for i in range(n_source, 3):
        assert report_rows(out / f"loss_teacher_obj{i}.tsv") == []
    for i in range(n_target, 3):
        assert report_rows(out / f"pseudo_student_obj{i}_round0.tsv") == []
        assert [row[3:] for row in report_rows(out / f"rounds_student_obj{i}.tsv")] == \
            [["0", "-"], ["0", "-"]]


# edits of the source split line; the row edits change its first sample
CORRUPT_SAMPLES = {
    "translation-4-dataset": lambda rec: edit_block(rec, "t", lambda t: t + [0.5]),
    "unknown-domain-dataset": lambda rec: rec.update(domain="tgt"),
    "obs-63-dataset": lambda rec: edit_block(rec, "obs", lambda obs: obs[:-1]),
    "nan-observation-dataset":
        lambda rec: edit_block(rec, "obs", lambda obs: [float("nan"), *obs[1:]]),
    "negative-depth-dataset": lambda rec: edit_block(rec, "t", lambda t: [*t[:2], -0.7, *t[3:]]),
    "scaled-rotation-dataset":
        lambda rec: edit_block(rec, "r", lambda r: [2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0, *r[9:]]),
    "obs-bytes-not-float32s-dataset":
        lambda rec: rec.update(obs=base64.b64encode(base64.b64decode(rec["obs"])[:-2]).decode()),
    "obs-not-base64-dataset": lambda rec: rec.update(obs="*" + rec["obs"][1:]),
}


# header cases: the first object model edited
OBJECT_EDITS = {
    "diameter-not-a-number-dataset": lambda od: od.update(diameter="big"),
    "negative-diameter-dataset": lambda od: od.update(diameter=-1.0),
    "scaled-symmetry-dataset": lambda od: od.update(symmetries=[[2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0]]),
    "nan-point-dataset": lambda od: od["points"][0].__setitem__(0, float("nan")),
}


# header cases: the camera's fx set to a value that no camera has
CAMERA_FX = {"nan-fx-dataset": float("nan"), "infinite-fx-dataset": float("inf"),
             "true-fx-dataset": True}


# header cases: a size edited, and the error it gives; the splits stay as written
# (12 source and 6 target rows of width 64)
SIZE_EDITS = {
    "no-obs-dim-dataset": (lambda h: h.pop("obs_dim"), " header: obs_dim None is not a positive"),
    "zero-obs-dim-dataset": (lambda h: h.update(obs_dim=0), " header: obs_dim 0 is not a positive"),
    "true-obs-dim-dataset": (lambda h: h.update(obs_dim=True), " header: obs_dim True is not a"),
    "fractional-obs-dim-dataset": (lambda h: h.update(obs_dim=2.5), " header: obs_dim 2.5 is not"),
    "obs-dim-disagrees-dataset": (lambda h: h.update(obs_dim=63),
                                  ", line 2: obs, r and t need 756, 108 and 36 values"),
    "zero-n-source-dataset": (lambda h: h.update(n_source=0), " header: n_source 0 is not a"),
    "string-n-target-dataset": (lambda h: h.update(n_target="6"), " header: n_target '6' is not"),
    "n-target-disagrees-dataset": (lambda h: h.update(n_target=7),
                                   ", line 3: obs, r and t need 448, 63 and 21 values"),
}


def _corrupt_dataset(tmp_path, case):
    """A generated dataset cut in half, cut after its source split line,
    reduced to a header that lists no objects and no samples, with a
    header kind that is neither "pose" nor "scalar", rewritten in format
    version 1 (a line per sample, decimal lists), 2 (a line per sample,
    base64), 3 (a line per split, with per-row id and object lists) or 4
    (float64 observations, the row counts under ``meta``), with its first
    object model edited as ``OBJECT_EDITS`` says, with its camera's fx set
    as ``CAMERA_FX`` says, with a size edited as ``SIZE_EDITS`` says, or
    with its source split line edited as ``CORRUPT_SAMPLES`` says."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "tiny", dict(TINY, out_dir=str(out)))
    assert cli.main(["gen-data", "--config", cfg, "--scalar-task"]) == 0
    path = out / "dataset.txt"
    if case == "truncated-dataset":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    elif case == "cut-after-source-dataset":
        header, source, _ = path.read_text().splitlines()
        path.write_text(header + "\n" + source + "\n")
    elif case == "no-objects-dataset":
        header = json.loads(path.read_text().splitlines()[0])
        header.update(objects=[], n_source=0, n_target=0)
        path.write_text(json.dumps(header) + "\n")
    elif case == "unknown-kind-dataset":
        header, *samples = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps(dict(json.loads(header), kind="banana")),
                                   *samples]) + "\n")
    elif case in OLD_VERSIONS:
        header, *splits = map(json.loads, path.read_text().splitlines())
        n_objects, version = len(header["objects"]), int(case[8])
        if version == 4:
            rows = [version_4_record(rec) for rec in splits]
        elif version == 3:
            rows = [version_3_record(rec, n_objects) for rec in splits]
        else:
            floats = list if version == 1 else encode_floats
            rows = [row for rec in splits for row in per_sample_records(rec, floats, n_objects)]
        path.write_text("".join(json.dumps(d, sort_keys=True) + "\n"
                                for d in [dict(version_4_header(header), version=version),
                                          *rows]))
    elif case in OBJECT_EDITS or case in CAMERA_FX or case in SIZE_EDITS:
        header, *splits = path.read_text().splitlines()
        header = json.loads(header)
        if case in CAMERA_FX:
            header["camera"]["fx"] = CAMERA_FX[case]
        elif case in SIZE_EDITS:
            SIZE_EDITS[case][0](header)
        else:
            OBJECT_EDITS[case](header["objects"][0])
        path.write_text("\n".join([json.dumps(header), *splits]) + "\n")
    else:
        header, source, target = path.read_text().splitlines()
        source = json.loads(source)
        CORRUPT_SAMPLES[case](source)
        path.write_text("\n".join([header, json.dumps(source), target]) + "\n")
    return ["train", "--stage", "teacher", "--config", cfg, "--scalar-task"]


OLD_VERSIONS = [f"version-{v}-dataset" for v in (1, 2, 3, 4)]

BAD_CONFIGS = {
    "seed-not-int": {"seed": "abc"},
    "camera-too-short": {"data": {"camera": [600]}},
    "camera-with-principal-point": {"data": {"camera": [600, 600, 320, 240]}},
    "negative-seed": {"seed": -1},
    "negative-anchor-seed": {"anchors": {"seed": -1}},
    "negative-network-seed": {"network": {"seed": -3}},
    "network-seed": {"network": {"seed": 0}},
    "negative-object-seed": {"data": {"object_seed": -2}},
    "nan-camera": {"data": {"camera": [float("nan"), 600]}},
    "infinite-float": {"train": {"ctc_weight": float("inf")}},
    "negative-z-range": {"anchors": {"z_range": [-1.0, 2.0]}},
    "negative-teacher-epochs": {"train": {"teacher_epochs": -2}},
    "negative-student-epochs": {"train": {"student_epochs": -1}},
    "negative-teacher-lr": {"train": {"lr_teacher": -0.01}},
    "zero-student-lr": {"train": {"lr_student": 0.0}},
    "negative-source-noise": {"data": {"source_noise": -1}},
    "target-dropout-above-one": {"data": {"target_dropout": 1.5}},
    "negative-scalar-noise": {"scalar_task": True, "data": {"scalar_target_noise": -1}},
}


@pytest.mark.parametrize("case, code", [(case, cli.EXIT_CONFIG) for case in BAD_CONFIGS] + [
    ("negative-seed-flag", cli.EXIT_CONFIG),
    ("out-under-a-file", cli.EXIT_IO),
    ("truncated-dataset", cli.EXIT_IO),
    ("cut-after-source-dataset", cli.EXIT_IO),
    ("no-objects-dataset", cli.EXIT_IO),
    ("unknown-kind-dataset", cli.EXIT_IO),
    ("trailing-bytes-checkpoint", cli.EXIT_IO),
    ("truncated-checkpoint", cli.EXIT_IO),
] + [(case, cli.EXIT_IO) for case in [*OLD_VERSIONS, *OBJECT_EDITS, *CAMERA_FX, *SIZE_EDITS,
                                      *CORRUPT_SAMPLES]])
def test_bad_input_exits_with_one_line(tmp_path, capsys, case, code):
    if case.endswith("-dataset"):
        argv = _corrupt_dataset(tmp_path, case)
    elif case.endswith("-checkpoint"):
        cfg = dict(TINY, out_dir=str(tmp_path / "run"))
        argv = ["--config", write_config(tmp_path, "tiny", cfg)]
        assert cli.main(["gen-data"] + argv) == 0
        assert cli.main(["train", "--stage", "teacher"] + argv) == 0
        path = tmp_path / "run" / "teacher_obj0.ckpt"
        data = path.read_bytes()
        path.write_bytes(data + b"\0" * 7 if case == "trailing-bytes-checkpoint" else data[:-3])
        argv = ["eval", "--checkpoint", str(path)] + argv
    elif case == "negative-seed-flag":
        argv = ["gen-data", "--seed", "-1", "--out", str(tmp_path / "run")]
    elif case == "out-under-a-file":
        (tmp_path / "file").write_text("")
        argv = ["gen-data", "--out", str(tmp_path / "file" / "run")]
    else:
        argv = ["gen-data", "--config", write_config(tmp_path, "bad", BAD_CONFIGS[case]),
                "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if case in OLD_VERSIONS:
        assert (f"dataset version {case[8]}, this build reads version 5; re-run gen-data"
                in err), err
    elif case.endswith("-checkpoint"):
        assert "teacher_obj0.ckpt: corrupt checkpoint (" in err, err
        assert "parameter bytes, expected" in err, err
    elif case in CORRUPT_SAMPLES:
        assert ": corrupt dataset, line 2: " in err, err
    elif case == "cut-after-source-dataset":
        assert "dataset.txt: corrupt dataset, line 3: the file ends before the target" in err, err
    elif case == "unknown-kind-dataset":
        assert "dataset.txt: corrupt dataset header: kind 'banana' is neither" in err, err
    elif case in SIZE_EDITS:
        assert "dataset.txt: corrupt dataset" + SIZE_EDITS[case][1] in err, err
    elif case in CAMERA_FX:
        assert "dataset.txt: corrupt dataset (InvalidArgumentError: camera fx " in err, err
    elif case in OBJECT_EDITS:
        assert "dataset.txt: corrupt dataset (InvalidArgumentError: " in err, err
    elif case.endswith("network-seed"):     # --seed draws the initial weights
        assert err == "error: unknown NetConfig keys: ['seed']\n", err
    if case.endswith("-dataset"):
        assert not list((tmp_path / "run").glob("*.ckpt"))
    elif case.endswith("-checkpoint"):
        assert not list((tmp_path / "run").glob("recall_eval_*.tsv"))
    else:
        assert not (tmp_path / "run" / "dataset.txt").exists()
        assert not (tmp_path / "run" / "config.json").exists()


@pytest.mark.parametrize("scalar", [False, True], ids=["pose", "scalar"])
def test_observations_past_float32_are_refused(tmp_path, capsys, scalar):
    """A noise scale of 1e300 passes validation, but its observations
    overflow the dataset file's float32: gen-data exits 2 with one line and
    writes no dataset file and no config.json."""
    noise = {"scalar_source_noise" if scalar else "source_noise": 1e300}
    cfg = dict(TINY, data=dict(TINY["data"], **noise), out_dir=str(tmp_path / "run"))
    argv = ["gen-data", "--config", write_config(tmp_path, "loud", cfg)]
    capsys.readouterr()
    assert cli.main(argv + (["--scalar-task"] if scalar else [])) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: source row 0: an observation value that is not a finite float32\n"
    assert not (tmp_path / "run" / "dataset.txt").exists()
    assert not (tmp_path / "run" / "config.json").exists()


def test_zero_norm_features_are_a_training_failure(tmp_path, capsys):
    """With every source value dropped the features are all zero, and the
    correlation term cannot normalize them: a training failure, not a
    config error.  The command trains the two objects in two processes
    and fails the same way."""
    cfg = dict(TINY, data=dict(TINY["data"], source_dropout=1.0), out_dir=str(tmp_path))
    argv = ["--config", write_config(tmp_path, "dropped", cfg)]
    step = ["train", "--stage", "teacher"] + argv
    assert cli.main(["gen-data"] + argv) == 0
    capsys.readouterr()
    assert cli.main(step) == cli.EXIT_TRAINING
    err = capsys.readouterr().err
    assert err == "error: zero-norm feature in batch\n"
    assert python("-m", "poseadapt.cli", *step)[::2] == (cli.EXIT_TRAINING, err)


def python(*args):
    """Exit code, stdout and stderr of ``python *args`` with the package on
    the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return run.returncode, run.stdout, run.stderr


def test_diverging_training_exits_with_one_line(tmp_path, capsys):
    """A run that diverges fails once: exit 5 and one line, in-process,
    where pytest turns numpy's warnings into errors, and as a command,
    where numpy would print them.  A learning rate of 1e10 overflows the
    float32 pose network within three epochs, at a non-finite loss.  At
    1e6 the scalar network's loss stays finite, but Adam's float32
    squared gradients overflow its second moment."""
    cases = [(False, dict(lr_teacher=1e10, teacher_epochs=3), {}, "non-finite loss "),
             (True, dict(lr_teacher=1e6, teacher_epochs=4), dict(n_source=600),
              "non-finite Adam second moment\n")]
    for scalar, train, data, message in cases:
        out = tmp_path / ("scalar" if scalar else "pose")
        cfg = dict(TINY, train=dict(TINY["train"], **train), data=dict(TINY["data"], **data),
                   out_dir=str(out))
        argv = ["--config", write_config(tmp_path, out.name, cfg)] + \
            (["--scalar-task"] if scalar else [])
        step = ["train", "--stage", "teacher"] + argv
        assert cli.main(["gen-data"] + argv) == 0
        capsys.readouterr()
        assert cli.main(step) == cli.EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: " + message) and err.count("\n") == 1
        assert python("-m", "poseadapt.cli", *step)[::2] == (cli.EXIT_TRAINING, err)


def test_the_command_pins_one_blas_thread_before_numpy_loads(monkeypatch):
    """Importing the CLI loads no numpy, so ``entrypoint`` can still set the
    thread counts; a value the user set wins, and one worker per CPU trains."""
    probe = "import sys, poseadapt.cli; print({'numpy', 'poseadapt.experiment'} & set(sys.modules))"
    assert python("-c", probe)[:2] == (0, "set()\n")
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv=None, workers=1: calls.append(workers) or 0)
    for user in (None, "3"):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if user is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user)
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == 0
        assert (os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"]) == \
            (user or "1", "1")
    assert len(calls) == 2 and min(calls) >= 1


@pytest.mark.parametrize("cpus, workers", [(6, 6), (None, 1)])
def test_the_command_counts_cpus_without_sched_getaffinity(monkeypatch, cpus, workers):
    """Where ``os.sched_getaffinity`` is missing (macOS, Windows), the
    command trains one worker per CPU that ``os.cpu_count`` reports, and
    one when it reports none."""
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv=None, workers=1: calls.append(workers) or 0)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    with pytest.raises(SystemExit) as exit_:
        cli.entrypoint()
    assert exit_.value.code == 0
    assert calls == [workers]


@pytest.mark.parametrize("key", ["k_rot", "k_z", "k_vxvy", "use_ctc", "reannotate"])
def test_removed_score_keys_are_rejected(tmp_path, capsys, key):
    """Removed keys fail as unknown; ``train.use_ctc`` went with the
    scores' k keys (``train.ctc_weight: 0`` remains), and
    ``train.reannotate`` with the option of a teacher-only annotator."""
    old = ({"train": {key: False}} if key in ("use_ctc", "reannotate")
           else {"scores": {key: 2}})
    with pytest.raises(ConfigError, match=key):
        config_from_dict(old)
    path = write_config(tmp_path, "old", old)
    assert cli.main(["gen-data", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_one_rotation_anchor_trains(tmp_path, capsys):
    """``anchors.n_rot: 1`` passes validation and also trains."""
    cfg = dict(TINY, anchors=dict(TINY["anchors"], n_rot=1),
               scores=dict(TINY["scores"], rotation=[1.0, 0.0, 1]), out_dir=str(tmp_path))
    argv = ["--config", write_config(tmp_path, "one", cfg)]
    assert cli.main(["gen-data"] + argv) == 0
    assert cli.main(["train", "--stage", "teacher"] + argv) == 0


@pytest.mark.parametrize("scalar, single, counts, ranges", [
    (False, False, (4, 3, 3, 4), ((-200.0, 200.0), (-200.0, 200.0), (0.0, 2.0))),
    (False, True, (1, 1, 1, 1), ((-200.0, 200.0), (-200.0, 200.0), (0.0, 2.0))),
    (True, False, (1, 1, 1, 4), ((-1.0, 1.0), (-1.0, 1.0), (0.5, 1.0))),
    (True, True, (1, 1, 1, 1), ((-1.0, 1.0), (-1.0, 1.0), (0.5, 1.0))),
], ids=["pose", "pose-single", "scalar", "scalar-single"])
def test_anchor_sets(scalar, single, counts, ranges):
    """The anchors of each task, and the direct-regression baseline's one
    anchor per branch, under the ``TINY`` config."""
    got = build_anchors(config_from_dict(TINY), scalar=scalar, single=single)
    want = AnchorSet.build(*counts, *ranges, seed=0)
    for field in ("rotations", "bins_vx", "bins_vy", "bins_z"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.z_range == ranges[2]


@pytest.mark.parametrize("stage, ctc_weight, single, use_cls, objective_ctc", [
    ("teacher", 2.5, False, True, 2.5),
    ("student", 2.5, False, True, 2.5),
    (None, 2.5, False, True, 2.5),
    ("teacher", 0.0, False, True, 0.0),
    ("baseline-regression", 2.5, True, False, 0.0),
], ids=["teacher", "student", "missing-meta-stage", "no-ctc", "baseline-regression"])
@pytest.mark.parametrize("scalar", [False, True], ids=["pose", "scalar"])
def test_stage_definitions(scalar, stage, ctc_weight, single, use_cls, objective_ctc):
    """``build_stage`` under ``TINY`` with ``train.ctc_weight`` set: each
    stage's anchors, network branches and loss terms.  The CTC ablation is
    a teacher at weight 0.  A checkpoint whose meta names no stage reads
    as a teacher; the scalar task keeps only the z branch."""
    cfg = config_from_dict(dict(TINY, train=dict(TINY["train"], ctc_weight=ctc_weight)))
    dc = (0.0, 0.0, 0.0)
    ds = (make_scalar_task(2, 1, dc, dc, seed=0) if scalar else
          make_dataset(2, 1, [make_object("box", seed=1, n_points=8)], build_camera(cfg), dc, dc,
                       seed=0, sample_ranges=SAMPLE_RANGES))
    anchors, net_cfg, objective = build_stage(cfg, ds, stage)
    want = build_anchors(cfg, scalar=scalar, single=single)
    for field in ("rotations", "bins_vx", "bins_vy", "bins_z"):
        np.testing.assert_array_equal(getattr(anchors, field), getattr(want, field))
    branches = (0, 0, 0) if scalar else (want.n_rot, len(want.bins_vx), len(want.bins_vy))
    assert (net_cfg.n_rot, net_cfg.n_vx, net_cfg.n_vy, net_cfg.n_z) == \
        (*branches, len(want.bins_z))
    assert (net_cfg.obs_dim, net_cfg.feature_dim, net_cfg.encoder_hidden, net_cfg.head_hidden) == \
        (ds.obs_dim, 8, (8,), 4)
    assert (objective.use_cls, objective.ctc_weight) == (use_cls, objective_ctc)
    assert objective.labels == cfg.scores
    np.testing.assert_array_equal(objective.target_graph,
                                  build_target_graph(want.bins_z, *want.z_range))


@pytest.mark.parametrize("step", [["train", "--stage", "no-ctc"],
                                  ["sweep-threshold", "--stage", "teacher"]],
                         ids=["no-ctc-stage", "sweep-stage"])
def test_removed_stage_options_are_usage_errors(tmp_path, capsys, step):
    """There is no ``no-ctc`` stage and no ``sweep-threshold --stage``: a
    teacher without CTC is ``train.ctc_weight: 0``, and the sweep reads
    the run's teacher.  Either option is a usage error that writes nothing."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(step + ["--out", str(tmp_path)])
    assert exit_.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("invalid choice: 'no-ctc'" if step[0] == "train" else
            "unrecognized arguments: --stage teacher") in err, err
    assert list(tmp_path.iterdir()) == []


def test_a_zero_ctc_weight_is_the_ctc_ablation(tmp_path, capsys):
    """``train --stage teacher`` with ``train.ctc_weight: 0``, in its own
    run directory on a dataset shared through ``data_path``, trains without
    the correlation term: its loss curves read ``corr`` 0 in every epoch,
    where the default weight's read more.  A student then adapts from that
    teacher in the same directory."""
    train = dict(TINY["train"], teacher_epochs=2)
    runs = {"ctc": dict(TINY, train=train, out_dir=str(tmp_path / "ctc"))}
    runs["zero"] = dict(TINY, train=dict(train, ctc_weight=0.0), out_dir=str(tmp_path / "zero"),
                        data_path=str(tmp_path / "ctc" / "dataset.txt"))
    argvs = {name: ["--config", write_config(tmp_path, name, cfg)] for name, cfg in runs.items()}
    assert cli.main(["gen-data"] + argvs["ctc"]) == 0
    for argv in argvs.values():
        assert cli.main(["train", "--stage", "teacher"] + argv) == 0
    for i in range(2):
        corr = {name: [float(row[4]) for row in
                       report_rows(tmp_path / name / f"loss_teacher_obj{i}.tsv")]
                for name in runs}
        assert corr["zero"] == [0.0, 0.0]
        assert len(corr["ctc"]) == 2 and min(corr["ctc"]) > 0
    assert cli.main(["train", "--stage", "student"] + argvs["zero"]) == 0
    assert (tmp_path / "zero" / "student_obj1.ckpt").exists()
    assert not (tmp_path / "zero" / "dataset.txt").exists()


def test_a_checkpoint_of_the_removed_no_ctc_stage_still_evaluates(tmp_path, capsys):
    """Checkpoints that the removed ``no-ctc`` stage wrote name it in their
    meta; ``eval`` reads them as the teacher network they are."""
    argv = ["--config", write_config(tmp_path, "tiny", dict(TINY, out_dir=str(tmp_path)))]
    assert cli.main(["gen-data"] + argv) == 0
    assert cli.main(["train", "--stage", "teacher"] + argv) == 0
    reports = {}
    for name in ("teacher", "teacher-noctc"):
        path = tmp_path / f"{name}_obj1.ckpt"
        if name == "teacher-noctc":
            net, meta = load_checkpoint(tmp_path / "teacher_obj1.ckpt")
            save_checkpoint(path, net, meta=dict(meta, stage="no-ctc"))
        assert cli.main(["eval", "--checkpoint", str(path)] + argv) == 0
        reports[name] = [(tmp_path / f"recall_eval_{d}.tsv").read_bytes() for d in DOMAINS]
    assert reports["teacher-noctc"] == reports["teacher"]


@pytest.mark.parametrize("step", [["sweep-threshold"], ["train", "--stage", "student"],
                                  ["eval", "--checkpoint", "teacher_obj0.ckpt"]],
                         ids=["sweep", "student", "eval"])
def test_checkpoint_of_another_config_exits_with_one_line(tmp_path, capsys, step):
    """A teacher trained with four depth anchors, read under a config with
    six: every command that loads it refuses, as a config error."""
    argv = ["--config", write_config(tmp_path, "four", dict(TINY, out_dir=str(tmp_path)))]
    assert cli.main(["gen-data"] + argv) == 0
    assert cli.main(["train", "--stage", "teacher"] + argv) == 0
    six = dict(TINY, anchors=dict(TINY["anchors"], n_z=6), out_dir=str(tmp_path))
    step = [str(tmp_path / a) if a.endswith(".ckpt") else a for a in step]
    capsys.readouterr()
    assert cli.main(step + ["--config", write_config(tmp_path, "six", six)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("sweep_*.tsv"))


@pytest.mark.parametrize("meta", [{"object_id": "x"}, {"object_id": None}, {"object_id": [0]},
                                  {"object_id": 1.5}, {"object_id": True}, [0]],
                         ids=["string", "null", "list", "float", "bool", "meta-not-an-object"])
def test_bad_checkpoint_object_id_exits_with_one_line(tmp_path, capsys, meta):
    """``eval`` refuses a checkpoint whose meta is not an object, or whose
    object id is not an integer, as a corrupt checkpoint."""
    argv = ["--config", write_config(tmp_path, "tiny", dict(TINY, out_dir=str(tmp_path)))]
    assert cli.main(["gen-data"] + argv) == 0
    assert cli.main(["train", "--stage", "teacher"] + argv) == 0
    path = tmp_path / "teacher_obj0.ckpt"
    save_checkpoint(path, load_checkpoint(path)[0], meta=meta)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(path)] + argv) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: corrupt checkpoint (") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("recall_eval_*.tsv"))


@pytest.mark.parametrize("step", [["sweep-threshold"], ["train", "--stage", "student"],
                                  ["eval", "--checkpoint", "teacher_obj0.ckpt"]],
                         ids=["sweep", "student", "eval"])
@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_of_an_old_version_exits_with_one_line(tmp_path, capsys, version, step):
    """A teacher checkpoint of format version 1 (float64 parameters) or 2
    (a parameter table in its header) is refused by every command that
    loads it, as an I/O error that says to re-train."""
    argv = ["--config", write_config(tmp_path, "tiny", dict(TINY, out_dir=str(tmp_path)))]
    assert cli.main(["gen-data"] + argv) == 0
    assert cli.main(["train", "--stage", "teacher"] + argv) == 0
    path = tmp_path / "teacher_obj0.ckpt"
    write = write_v1_checkpoint if version == 1 else write_v2_checkpoint
    write(path, load_checkpoint(path)[0])
    step = [str(tmp_path / a) if a.endswith(".ckpt") else a for a in step]
    capsys.readouterr()
    assert cli.main(step + argv) == cli.EXIT_IO
    assert capsys.readouterr().err == (f"error: {path}: checkpoint version {version}, this "
                                       "build reads version 3; re-train\n")
    assert not list(tmp_path.glob("sweep_*.tsv")) and not list(tmp_path.glob("student_*"))


MISSING = {
    "train-without-dataset": (["train", "--stage", "teacher"],
                              "dataset {out}/dataset.txt not found; run gen-data first"),
    "student-without-teacher-1": (["train", "--stage", "student"], "student stage needs "
                                  "{out}/teacher_obj1.ckpt; run --stage teacher first"),
    "sweep-without-teacher": (["sweep-threshold"],
                              "sweep needs {out}/teacher_obj0.ckpt; run --stage teacher first"),
    "eval-of-missing-checkpoint": (["eval", "--checkpoint", "{out}/student_obj0.ckpt"],
                                   "checkpoint {out}/student_obj0.ckpt not found"),
}


@pytest.mark.parametrize("case", list(MISSING))
def test_missing_dependency_exits_with_one_line(tmp_path, capsys, case):
    """A missing dataset, teacher or checkpoint exits 3 with one line and
    writes no file.  The student stage loads every teacher before it trains
    any student, so a missing second teacher leaves no student file."""
    out = tmp_path / "run"
    argv = ["--config", write_config(tmp_path, "tiny", dict(TINY, out_dir=str(out)))]
    if case != "train-without-dataset":
        assert cli.main(["gen-data"] + argv) == 0
    if case == "student-without-teacher-1":
        assert cli.main(["train", "--stage", "teacher"] + argv) == 0
        (out / "teacher_obj1.ckpt").unlink()
    before = sorted(tmp_path.rglob("*"))
    step, message = MISSING[case]
    capsys.readouterr()
    assert cli.main([a.format(out=out) for a in step] + argv) == cli.EXIT_DEPENDENCY
    assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
    assert not [p.name for p in out.glob("*student_*")]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("cfg", [
    {"anchors": {"n_rot": 3}},                       # rotation k = 4
    {"anchors": {"n_vx": 6}},                        # translation k = 7
    {"anchors": {"n_z": 5}},
    {"scalar_task": True, "data": {"scalar_bins": 5}},
])
def test_score_k_is_checked_against_anchor_counts(cfg):
    with pytest.raises(ConfigError, match="score k"):
        config_from_dict(cfg)
