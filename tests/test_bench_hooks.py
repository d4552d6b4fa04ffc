"""The benchmark's span hooks still find their targets.

``bench/tracing.py`` wraps each PATCHES entry by looking its name up in
the owner's own ``__dict__``; a rename or a move in the package breaks
the traced benchmark.  This checks every entry without running it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr, span", tracing.PATCHES,
                         ids=[f"{module}.{attr}" for module, attr, _ in tracing.PATCHES])
def test_patch_target_is_defined_on_its_owner(module, attr, span):
    owner, name = tracing._resolve(module, attr)
    assert callable(owner.__dict__.get(name)), f"{module}.{attr} is not in its owner's __dict__"
