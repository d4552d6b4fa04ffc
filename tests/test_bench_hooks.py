"""The benchmark still finds what it uses of the package.

``bench/tracing.py`` wraps each PATCHES entry by looking its name up in
the owner's own ``__dict__``; a rename or a move in the package breaks
the traced benchmark.  Its backward time means one ``Tensor.backward``
call per training step.  ``bench/run.py`` recomputes the last stage's
quality through ``predict_poses`` and ``evaluate_pose`` and checks it
against the reports the CLI wrote, and counts the training samples from
the run's config through ``threshold_schedule``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from poseadapt import cli
from poseadapt.config import load_config
from test_cli import TINY, run_pipeline, write_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", BENCH / "tracing.py")
run = _load("bench_run", BENCH / "run.py")


@pytest.mark.parametrize("module, attr, span", tracing.PATCHES,
                         ids=[f"{module}.{attr}" for module, attr, _ in tracing.PATCHES])
def test_patch_target_is_defined_on_its_owner(module, attr, span):
    owner, name = tracing._resolve(module, attr)
    assert callable(owner.__dict__.get(name)), f"{module}.{attr} is not in its owner's __dict__"


@pytest.mark.parametrize("workload", ["adapt-3obj", "scalar-adapt"], ids=["pose", "scalar"])
def test_bench_quality_agrees_with_the_reports(tmp_path, workload):
    wl = run.WORKLOADS[workload]
    out, codes = run_pipeline(tmp_path, "run", wl.scalar)
    assert codes[:5] == [0] * 5
    assert run.quality_problems(out, wl, run.quality(out, wl)) == []
    rc = load_config(str(out / "config.json"))
    n = run.train_samples(out, wl, rc)
    assert isinstance(n, int) and n >= rc.data.n_source * rc.train.teacher_epochs


def test_each_training_step_runs_one_backward(tmp_path):
    out = tmp_path / "run"
    argv = ["--config", write_config(tmp_path, "run", dict(TINY, out_dir=str(out))), "--seed", "3"]
    assert cli.main(["gen-data", *argv]) == 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["train", "--stage", "teacher", *argv]) == 0
    loops = [s.id for s in tracer.spans if s.name == "selftrain.train_supervised"]
    assert len(loops) == len(TINY["data"]["object_kinds"])
    for loop in loops:
        steps = [s.name for s in tracer.spans if s.parent == loop
                 and s.name in ("autodiff.backward", "network.adam_step")]
        assert steps and steps == ["autodiff.backward", "network.adam_step"] * (len(steps) // 2)
