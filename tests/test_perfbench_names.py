"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import runpy
from pathlib import Path

import pytest

from symdisk import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
DATA = Path(__file__).resolve().parent.parent / "data"


def test_traced_names_resolve():
    # run_path compiles the source without writing bytecode next to it
    tracer = runpy.run_path(str(TRACER))
    missing = [f"symdisk.{mod}.{name}" for mod, names in tracer["LAYERS"].items()
               for name in names
               if not hasattr(importlib.import_module(f"symdisk.{mod}"), name)]
    missing += [f"symdisk.cli.{name}" for name in tracer["CLI_IO"] if not hasattr(cli, name)]
    assert missing == []


# every command with the stacked layers it reaches
TRACED_COMMANDS = {
    "classify": (["classify", "--input", str(DATA / "jordan_halves.json")],
                 ["variety.region_audit", "gamma.classify_region"]),
    "trace": (["trace", "--input", str(DATA / "datum_royal.json"),
               "--kernel", f"model:{DATA / 'royal_pencil.json'}"],
              ["variety.slice_points", "variety.membership_residual", "gamma.classify_region",
               "kernels.unit_kernel_vector", "extend.branch_trace", "extend.unique_value"]),
    "realize": (["realize", "--input", str(DATA / "mobius_model.json"), "--grid-n", "8"],
                ["gamma.phi_operator", "realization.boundary_unitarity_audit",
                 "realization.inner_defect"]),
}


@pytest.mark.parametrize("command", sorted(TRACED_COMMANDS))
def test_traced_command_reaches_its_layers(command, tmp_path, capsys):
    # the tracer's signature lambdas (REPEAT_KEYS) run on every wrapped call,
    # so a traced command fails here when one no longer fits its function
    argv, layers = TRACED_COMMANDS[command]
    argv = argv + ["--out", str(tmp_path / "out")]
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    saved = list(tracer.saved)
    try:
        assert saved
        assert tracer.command_span(cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
    totals = tracer.layer_totals()
    assert [name for name in layers if totals.get(name, (0, 0.0))[0] < 1] == []
