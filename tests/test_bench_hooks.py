"""The benchmark still finds what it uses of the package.

``bench/tracing.py`` wraps each PATCHES entry by looking its name up in
the owner's own ``__dict__``; a rename or a move in the package breaks
the traced benchmark.  ``bench/run.py`` recomputes the last stage's
quality through ``predict_poses`` and ``evaluate_pose`` and checks it
against the reports the CLI wrote.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_cli import run_pipeline

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
    assert codes[:6] == [0] * 6
    assert run.quality_problems(out, wl, run.quality(out, wl)) == []
