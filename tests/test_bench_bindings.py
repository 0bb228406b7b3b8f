"""Every function the benchmark's tracer wraps exists where it looks.

``bench/tracer.py`` looks its functions up by (module, name); a function
that moves or is renamed would only fail a traced benchmark run. The file
is executed from its path, so nothing is written under ``bench/``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
LOOKUPS = (
    *(("autodiff", op) for op in TRACER["AUTODIFF_OPS"]),
    *TRACER["FUNCTIONS"],
    *TRACER["COUNTED"],
)


@pytest.mark.parametrize("module, name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"segembed.{module}"), name, None))
