"""Command-line pipeline: every stage end to end, determinism, exit codes."""

import hashlib
import json

import pytest

from poseadapt import cli
from poseadapt.config import config_from_dict
from poseadapt.errors import ConfigError
from poseadapt.experiment import SWEEP_TAUS

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
    """gen-data, the four train stages, eval and sweep-threshold into one
    run directory; returns the directory and each command's exit code."""
    out = tmp_path / name
    base = ["--config", write_config(tmp_path, name, dict(cfg, out_dir=str(out))),
            "--seed", "3"] + (["--scalar-task"] if scalar else [])
    steps = [["gen-data"]]
    steps += [["train", "--stage", s] for s in ("teacher", "no-ctc", "baseline-regression",
                                                "student")]
    steps += [["eval", "--checkpoint", str(out / "student_obj0.ckpt")], ["sweep-threshold"]]
    return out, [cli.main(step + base) for step in steps]


def expected_reports(n_objects, scalar):
    prefixes = ("teacher", "teacher-noctc", "baseline", "student")
    names = {f"{p}_obj{i}.ckpt" for p in prefixes for i in range(n_objects)}
    names |= {f"loss_{p}_obj{i}.tsv" for p in prefixes[:3] for i in range(n_objects)}
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
    assert codes == [0] * 6 + [cli.EXIT_CONFIG if scalar else 0]
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


# SHA-256 over the names and bytes of every checkpoint and TSV of ``golden_run``
GOLDEN_DIGEST = "398956398a2eb3e5e10caed7eb963824f775b9fa350be49b946b0b15d533aa15"


def golden_run(tmp_path):
    out = tmp_path / "golden"
    base = ["--config", write_config(tmp_path, "golden", dict(TINY, out_dir=str(out))),
            "--seed", "3"]
    for step in (["gen-data"], ["train", "--stage", "teacher"], ["train", "--stage", "student"]):
        assert cli.main(step + base) == 0
    digest = hashlib.sha256()
    for name, data in outputs(out).items():
        if name != "dataset.txt":
            digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def test_tiny_pipeline_matches_its_golden_digest(tmp_path, capsys):
    """The ``TINY`` pose pipeline (gen-data, teacher, student; seed 3)
    writes exactly the checkpoints and reports it always has.

    A change that is meant to keep results (a refactor, a speed-up) must
    keep this digest.  A change that moves results on purpose (a new
    loss scale, a new gradient order, a method change) updates
    ``GOLDEN_DIGEST`` and says so in CHANGES.md.  The digest holds for one
    numpy and BLAS build; another build may round differently."""
    assert golden_run(tmp_path) == GOLDEN_DIGEST


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
    assert codes == [0] * 7
    counts = {"source": n_source, "target": n_target}
    for domain, n in counts.items():
        for stage in ("teacher", "teacher-noctc", "baseline", "student"):
            rows = report_rows(out / f"recall_{stage}_{domain}.tsv")
            assert [row[1] for row in rows[:3]] == [str(int(i < n)) for i in range(3)]
            assert all(row[2] == "-" for row in rows[n:3])
    for i in range(n_source, 3):
        assert report_rows(out / f"loss_teacher_obj{i}.tsv") == []
    for i in range(n_target, 3):
        assert report_rows(out / f"pseudo_student_obj{i}_round0.tsv") == []
        assert [row[3:] for row in report_rows(out / f"rounds_student_obj{i}.tsv")] == \
            [["0", "-"], ["0", "-"]]


CORRUPT_SAMPLES = {
    "translation-4-dataset": lambda rec: rec["pose"]["t"].append(0.5),
    "unknown-domain-dataset": lambda rec: rec.update(domain="tgt"),
    "object-7-dataset": lambda rec: rec.update(object=7),
    "obs-63-dataset": lambda rec: rec["obs"].pop(),
}


def _corrupt_dataset(tmp_path, case):
    """A generated dataset cut in half, reduced to a header that lists no
    objects and no samples, or with its first sample edited as
    ``CORRUPT_SAMPLES`` says."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "tiny", dict(TINY, out_dir=str(out)))
    assert cli.main(["gen-data", "--config", cfg, "--scalar-task"]) == 0
    path = out / "dataset.txt"
    if case == "truncated-dataset":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    elif case == "no-objects-dataset":
        header = json.loads(path.read_text().splitlines()[0])
        header.update(objects=[], meta=dict(header["meta"], n_source=0, n_target=0))
        path.write_text(json.dumps(header) + "\n")
    else:
        header, first, *rest = path.read_text().splitlines()
        sample = json.loads(first)
        CORRUPT_SAMPLES[case](sample)
        path.write_text("\n".join([header, json.dumps(sample), *rest]) + "\n")
    return ["train", "--stage", "teacher", "--config", cfg, "--scalar-task"]


BAD_CONFIGS = {
    "seed-not-int": {"seed": "abc"},
    "camera-too-short": {"data": {"camera": [600, 600]}},
    "negative-seed": {"seed": -1},
    "negative-anchor-seed": {"anchors": {"seed": -1}},
    "negative-network-seed": {"network": {"seed": -3}},
    "negative-object-seed": {"data": {"object_seed": -2}},
    "nan-camera": {"data": {"camera": [float("nan"), 600, 320, 240]}},
    "infinite-float": {"train": {"ctc_weight": float("inf")}},
    "negative-z-range": {"anchors": {"z_range": [-1.0, 2.0]}},
    "negative-teacher-epochs": {"train": {"teacher_epochs": -2}},
    "negative-student-epochs": {"train": {"student_epochs": -1}},
    "negative-teacher-lr": {"train": {"lr_teacher": -0.01}},
    "zero-student-lr": {"train": {"lr_student": 0.0}},
}


@pytest.mark.parametrize("case, code", [(case, cli.EXIT_CONFIG) for case in BAD_CONFIGS] + [
    ("negative-seed-flag", cli.EXIT_CONFIG),
    ("out-under-a-file", cli.EXIT_IO),
    ("truncated-dataset", cli.EXIT_IO),
    ("no-objects-dataset", cli.EXIT_IO),
] + [(case, cli.EXIT_IO) for case in CORRUPT_SAMPLES])
def test_bad_input_exits_with_one_line(tmp_path, capsys, case, code):
    if case.endswith("-dataset"):
        argv = _corrupt_dataset(tmp_path, case)
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
    if not case.endswith("-dataset"):
        assert not (tmp_path / "run" / "dataset.txt").exists()


@pytest.mark.parametrize("key", ["k_rot", "k_z", "k_vxvy", "use_ctc", "reannotate"])
def test_removed_score_keys_are_rejected(tmp_path, capsys, key):
    """Removed keys fail as unknown; ``train.use_ctc`` went with the
    scores' k keys (the no-ctc stage and ctc_weight 0 remain), and
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


@pytest.mark.parametrize("cfg", [
    {"anchors": {"n_rot": 3}},                       # rotation k = 4
    {"anchors": {"n_vx": 6}},                        # translation k = 7
    {"anchors": {"n_z": 5}},
    {"scalar_task": True, "data": {"scalar_bins": 5}},
])
def test_score_k_is_checked_against_anchor_counts(cfg):
    with pytest.raises(ConfigError, match="score k"):
        config_from_dict(cfg)
