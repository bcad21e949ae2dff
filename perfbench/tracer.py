"""Per-layer tracing of symdisk, installed from outside the package.

:func:`install` replaces each listed public function, in every symdisk module
that holds a reference to it, by a wrapper that records a span (name, start,
end, parent) in memory.  ``PencilVariety`` is traced through its
``__post_init__``, where the numerical radius is computed.  Nothing in the
package changes on disk, and :func:`uninstall` puts every original back.

Self time is a span's duration minus the time its direct child spans cover;
spans of one thread nest, so the children lie inside the parent interval.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = {
    "linalg": ("spectrum", "spectral_projection", "psd_sqrt", "null_space",
               "cluster_eigenvalues"),
    "numrange": ("numerical_radius", "is_cnu", "cnu_decompose", "pu_compress",
                 "pu_witness_search"),
    "variety": ("PencilVariety", "slice_points", "region_audit", "defining_poly",
                "membership_residual", "distinguished_property_check"),
    "gamma": ("classify_region", "phi_operator"),
    "kernels": ("unit_kernel_vector",),
    "pick": ("gram_on_nodes", "psd_report", "kernel_basis_operators",
             "admissibility_audit"),
    "extend": ("build_extension", "branch_trace", "kernel_vector_at", "unique_value"),
    "realization": ("eval_model", "boundary_unitarity_audit", "inner_defect"),
    "sweeps": ("equivalence_sweep", "pu_sweep"),
}
# JSON and CSV reading and writing of the command line, traced as one layer
CLI_IO = ("_load_json", "load_matrix", "load_pick_data", "matrix_to_json", "_csv",
          "_write_atomic")
ROOT = "cli.main"


def _matrix_key(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return a.shape, a.tobytes()


def _point_key(x) -> tuple:
    return complex(x.s), complex(x.p)


# repeat ratios: calls per distinct input matrix or point, within one command
REPEAT_KEYS = {
    "numrange.numerical_radius": lambda F, *a, **k: _matrix_key(F),
    "linalg.spectrum": lambda A, *a, **k: _matrix_key(A),
    "variety.PencilVariety": lambda self: _matrix_key(self.F),
    "extend.kernel_vector_at": lambda model, x, *a, **k: _point_key(x),
}
REPEAT_UNITS = {"extend.kernel_vector_at": "calls/point"}
RETRY = ("linalg.spectral_projection", "IllPlacedContour")


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []        # [name index, start, end, parent span or -1]
        self.stack: list = []
        self.distinct: dict = {name: set() for name in REPEAT_KEYS}
        self.retries = 0
        self.command = 0
        self.saved: list = []        # (owner, attribute, original)

    def install(self) -> None:
        """Wrap every traced function in all loaded symdisk modules."""
        from symdisk import errors, variety

        retry_error = getattr(errors, RETRY[1])
        targets = [(f"{mod}.{fn}", importlib.import_module(f"symdisk.{mod}"), fn)
                   for mod, fns in LAYERS.items() for fn in fns
                   if fn != "PencilVariety"]
        cli = importlib.import_module("symdisk.cli")
        targets += [("cli.io", cli, fn) for fn in CLI_IO]
        modules = [m for n, m in sys.modules.items()
                   if n == "symdisk" or n.startswith("symdisk.")]
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, retry_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.saved.append((module, key, original))
                        setattr(module, key, wrapped)
        cls = variety.PencilVariety
        self.saved.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("variety.PencilVariety", cls.__post_init__,
                                       retry_error)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _wrap(self, name: str, fn, retry_error):
        index = self._name_index(name)
        key_of = REPEAT_KEYS.get(name)
        seen = self.distinct.get(name)
        counts_retries = name == RETRY[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                seen.add((self.command, key_of(*args, **kwargs)))
            return self._span(index, fn, args, kwargs,
                              retry_error if counts_retries else None)

        return wrapper

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, index, fn, args, kwargs, retry_error=None):
        span = [index, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if retry_error is not None and isinstance(exc, retry_error):
                self.retries += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def command_span(self, main, argv):
        """Run one CLI command under a root span; inputs repeat only within it."""
        self.command += 1
        return self._span(self._name_index(ROOT), main, (argv,), {})

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the installed wrappers."""
        self.spans.clear()
        for seen in self.distinct.values():
            seen.clear()
        self.retries = 0

    def layer_totals(self) -> dict:
        """{name: (calls, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in self.names}
        for (index, start, end, _), inner in zip(self.spans, child):
            entry = totals[self.names[index]]
            entry[0] += 1
            entry[1] += (end - start) - inner
        return {name: tuple(v) for name, v in totals.items()}

    def ratios(self, totals: dict) -> dict:
        out = {}
        for name, seen in self.distinct.items():
            calls = totals.get(name, (0, 0.0))[0]
            out[f"{name}.repeat_ratio"] = calls / len(seen) if seen else 0.0
        calls = totals.get(RETRY[0], (0, 0.0))[0]
        out[f"{RETRY[0]}.contour_retries"] = self.retries / calls if calls else 0.0
        return out

    def write(self, path: Path, spans: list) -> None:
        """Spans as JSON: names, then [name index, start, end, parent] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": spans}))


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    out += [("cli.io.self_s", "s"), (f"{ROOT}.calls", "count"), (f"{ROOT}.self_s", "s")]
    out += [(f"{name}.repeat_ratio", REPEAT_UNITS.get(name, "calls/matrix"))
            for name in REPEAT_KEYS]
    out += [(f"{RETRY[0]}.contour_retries", "raises/call"), ("tracing.overhead_pct", "%")]
    return out
