"""The scripts under scripts/ run end to end on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("run_uniqueness_traces.py", ["--samples", "5"]),
    ("run_equivalence_sweep.py", ["--cases", "5", "--seed", "0"]),
])
def test_script_exits_zero(script, args, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path)] + args)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_.value.code == 0, capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--dim", "1"],
    ["--cases", "-5"],
    ["--pu-cases", "-2"],
])
def test_equivalence_sweep_script_rejects_bad_arguments(args, monkeypatch, capsys):
    path = SCRIPTS / "run_equivalence_sweep.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--cases", "5"] + args)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_.value.code == 2
    assert "sweep:" not in capsys.readouterr().out


@pytest.mark.parametrize("script", ["run_equivalence_sweep.py", "run_uniqueness_traces.py"])
def test_scripts_reject_a_negative_seed(script, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), "--seed", "-1"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_.value.code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


def test_uniqueness_traces_script_rejects_negative_samples(monkeypatch, capsys):
    path = SCRIPTS / "run_uniqueness_traces.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--samples", "-3"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "--samples must be non-negative" in captured.err
    assert "datum A" not in captured.out
