"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # run_path compiles the source without writing bytecode next to it
    tracer = runpy.run_path(str(TRACER))
    missing = [f"symdisk.{mod}.{name}" for mod, names in tracer["LAYERS"].items()
               for name in names
               if not hasattr(importlib.import_module(f"symdisk.{mod}"), name)]
    cli = importlib.import_module("symdisk.cli")
    missing += [f"symdisk.cli.{name}" for name in tracer["CLI_IO"] if not hasattr(cli, name)]
    assert missing == []
