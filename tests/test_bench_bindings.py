"""Every function the benchmark's tracer wraps exists where it looks, and
the workloads reach every op and loss graph the benchmark expects of them.

``bench/tracer.py`` looks its functions up by (module, name); a function
that moves or is renamed would only fail a traced benchmark run. A traced
run also fails when a wrapped function outside a workload's ``idle`` set
records no call; the workload test below checks that rule for the autodiff
ops, the loss graphs and the traced retrieval functions of ``evalstd`` on
short runs of two workloads. The bench files
are executed from their paths, so nothing is written under ``bench/``.
"""

import importlib
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

from segembed.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = runpy.run_path(str(BENCH / "tracer.py"))
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))
LOOKUPS = (
    *(("autodiff", op) for op in TRACER["AUTODIFF_OPS"]),
    *TRACER["FUNCTIONS"],
    *TRACER["COUNTED"],
)
# what the zero-call rule must find called, as (module, name)
REACHED = (
    *(("autodiff", op) for op in TRACER["AUTODIFF_OPS"]),
    *(("_trainer", graph) for graph in TRACER["TRAINER_GRAPHS"]),
    *((module, name) for module, name in TRACER["FUNCTIONS"] + TRACER["COUNTED"]
      if module == "evalstd"),
)


@pytest.mark.parametrize("module, name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"segembed.{module}"), name, None))


def _count_calls(monkeypatch, calls):
    """Point every segembed binding of each ``REACHED`` function at a
    wrapper that counts its calls under "<module>.<name>", as the tracer
    rebinds them."""

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("segembed") and m is not None]
    for module, name in REACHED:
        original = getattr(importlib.import_module(f"segembed.{module}"), name)
        wrapper = counted(f"{module}.{name}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)


@pytest.mark.parametrize("workload", ["desk_cli", "rnn_encoder"])
def test_workload_calls_every_op_and_loss_graph_not_listed_idle(
    workload, tmp_path, monkeypatch, capsys
):
    """The workload's commands at 2 epochs, the discriminator warmed up for
    one so the adversarial term runs in the second."""
    spec = WORKLOADS["WORKLOADS"][workload]
    settings = {**WORKLOADS["DESK_CFG"], **spec.settings, "train.epochs": "2",
                "train.disc_warmup_epochs": "1", "siamese.epochs": "2"}
    config = tmp_path / "desk.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    paths = {"in": tmp_path / "input", "out": tmp_path / "run"}

    def run(argv, out_dir):
        argv = ["--config", str(config), "--seed", "0", "--out-dir", str(out_dir),
                *(a.format_map(paths) for a in argv)]
        assert main(argv) == 0, (argv, capsys.readouterr().err)

    run(["synth"], paths["in"])
    calls = Counter()
    _count_calls(monkeypatch, calls)
    for _, argv in spec.prep:
        run(argv, paths["in"])
    for _, argv in spec.commands:
        run(argv, paths["out"])
    silent = [f"{m}.{n}" for m, n in REACHED
              if f"{m}.{n}" not in spec.idle and not calls[f"{m}.{n}"]]
    assert not silent, f"{workload} never calls {silent}"
