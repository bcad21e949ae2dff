"""Benchmark of the symdisk command line, driven in process.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 20 --trace 0

Run it from the root of a symdisk checkout; it imports the package from the
checkout's ``src`` directory.  Set-up (a fresh import of symdisk plus
generating and writing the workload's inputs) is repeated and timed apart
from the commands.  The workload's fixed command list then runs through
``symdisk.cli.main`` in whole rounds until ``--seconds`` is used up (at least
one round), and every command's output is checked against
:mod:`checks`.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of :mod:`tracer`
and the tracing overhead; the spans of the first traced round are written to
``perfbench/out/``.  The load is one process and one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SYMDISK_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
N_SETUPS = 9


def import_symdisk():
    """Import symdisk afresh from the checkout and return ``symdisk.cli``."""
    for name in [n for n in sys.modules if n == "symdisk" or n.startswith("symdisk.")]:
        del sys.modules[name]
    cli = importlib.import_module("symdisk.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"symdisk was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work: Path):
    t0 = time.perf_counter()
    cli = import_symdisk()
    commands = workloads.build(workload, seed, work, ROOT)
    return time.perf_counter() - t0, cli, commands


class Tally:
    """Attempted and failed commands, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_command(cli, command, tally: Tally, tracer=None):
    """Run and check one command; returns (seconds, items processed)."""
    out, err = io.StringIO(), io.StringIO()
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(command.argv)
            else:
                rc = tracer.command_span(cli.main, command.argv)
    except Exception:   # a crash of the program is a failed command, not ours
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if rc != 0:
        tally.failed += 1
        print(f"failed (exit {rc}): {' '.join(command.argv)}\n{err.getvalue()}",
              file=sys.stderr)
        return seconds, 0
    try:
        return seconds, command.check(out.getvalue())
    except (checks.CheckFailed, LookupError, ValueError, OSError) as exc:
        tally.correct = False
        print(f"wrong output: {' '.join(command.argv)}: {exc!r}", file=sys.stderr)
        return seconds, 0


def run_round(cli, commands, tally: Tally, tracer=None):
    """One pass over the command list: (per-command seconds, items processed)."""
    times, items = [], 0
    for command in commands:
        seconds, n = run_command(cli, command, tally, tracer)
        times.append(seconds)
        items += n
    return times, items


def timed_rounds(run, seconds: float) -> list:
    """Repeat ``run`` while another round fits in ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        results.append(run())
        now = time.perf_counter()
        if (now - start) + (now - r0) > seconds:
            return results


def end_to_end(setups: list, rounds: list) -> dict:
    """The end-to-end metrics from set-up times and (times, items) per round.

    Round and command times are means over all rounds of the run.  The
    machine's speed drifts in phases of seconds; the mean weighs each phase by
    its share of the run, where the median or the fastest round of a few
    rounds jumps between phases from one run to the next.
    """
    walls = [sum(times) for times, _ in rounds]
    per_command = [statistics.fmean(ts) for ts in zip(*(times for times, _ in rounds))]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "cmd_p50_s": (statistics.median(per_command), "s"),
        "cmd_max_s": (max(per_command), "s"),
        "items_per_s": (sum(n for _, n in rounds) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(pairs: list) -> dict:
    """Per-layer metrics from [(untraced wall, traced wall, totals, ratios)]."""
    _, _, first, ratios = pairs[0]
    values = dict(ratios)
    for name, _unit in tracing.layer_metric_names():
        layer, kind = name.rsplit(".", 1)
        if kind == "calls":
            values[name] = first.get(layer, (0, 0.0))[0]
        elif kind == "self_s":
            values[name] = statistics.median(p[2].get(layer, (0, 0.0))[1] for p in pairs)
    untraced = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    values["tracing.overhead_pct"] = 100 * (traced / untraced - 1)
    return {name: (values[name], unit) for name, unit in tracing.layer_metric_names()}


def traced_run(args, cli, commands, tally: Tally) -> dict:
    """Pairs of an untraced and a traced round; returns the per-layer metrics.

    Alternating the two keeps slow drifts of the machine out of the overhead.
    """
    tracer = tracing.Tracer()
    spans = []

    def pair():
        untraced = sum(run_round(cli, commands, tally)[0])
        tracer.install()
        try:
            traced = sum(run_round(cli, commands, tally, tracer)[0])
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        if not spans:
            spans.extend(tracer.spans)
        ratios = tracer.ratios(totals)
        tracer.reset()
        return untraced, traced, totals, ratios

    pairs = timed_rounds(pair, args.seconds)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json", spans)
    return per_layer(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "symdisk" / "__init__.py").is_file():
        print(f"no symdisk sources under {SRC}; run from a symdisk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(N_SETUPS):
            seconds, cli, commands = set_up(args.workload, args.seed, work)
            setups.append(seconds)
        tally = Tally()
        if args.trace:
            result = traced_run(args, cli, commands, tally)
        else:
            result = end_to_end(setups, timed_rounds(
                lambda: run_round(cli, commands, tally), args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
