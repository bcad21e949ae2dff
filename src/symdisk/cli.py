"""Command-line front end.

Subcommands: classify | pick | trace | realize | verify.  Matrices and Pick
data travel as JSON ({"re": .., "im": ..} scalars), reports as text plus
optional machine-readable JSON/CSV via --out (written atomically).  Exit
codes: 0 ok, 2 input problem, 3 numerical failure, 4 certificate/audit not
achieved.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile
import typing

import numpy as np

from . import kernels
from .config import DEFAULT, Tolerances, with_overrides
from .errors import InputError, NoActiveKernel, NumericalError, SymdiskError
from .extend import branch_trace, build_extension, unique_value
from .gamma import szego_kernel
from .linalg import cluster_eigenvalues
from .pick import (PickData, admissibility_audit, gram_on_nodes, pick_matrix,
                   psd_report)
from .realization import (RealizationModel, boundary_unitarity_audit,
                          inner_defect)
from .sweeps import equivalence_sweep, pu_sweep, random_g_point
from .variety import (PencilVariety, default_p_grid, defining_poly, is_distinguished,
                      region_audit, slice_points)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NO_CERTIFICATE = 4

_TOL_FLAG = re.compile(r"^--tol-([a-z0-9-]+)=(.*)$")
# declared type of every Tolerances field, used to parse its --tol- value
_TOL_TYPES = typing.get_type_hints(Tolerances)


# ---------------------------------------------------------------- JSON I/O

def _complex_from_json(obj) -> complex:
    """A number, or an object with number values under "re", "im" or both and no
    other key (a missing part is 0).  json.load gives an exact int or float for
    a number, so the type() test leaves out bool."""
    parts = obj if type(obj) is dict else {"re": obj}
    re, im = parts.get("re", 0), parts.get("im", 0)
    if 0 < len(parts) == ("re" in parts) + ("im" in parts) and \
            type(re) in (int, float) and type(im) in (int, float):
        try:
            return complex(float(re), float(im))
        except OverflowError:
            pass
    raise InputError(f"expected a complex scalar, got {obj!r}")


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _matrix_from_rows(rows) -> np.ndarray:
    """The matrix of a JSON 'rows' value: a non-empty list of equal-length lists of scalars."""
    if not isinstance(rows, list) or not rows:
        raise InputError("'rows' must be a non-empty list")
    if not all(isinstance(row, list) for row in rows) or len({len(r) for r in rows}) != 1:
        raise InputError("ragged rows: each row must be a list of the same length")
    return np.array([[_complex_from_json(e) for e in row] for row in rows])


def load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if not isinstance(data, dict) or "rows" not in data:
        raise InputError(f"{path}: matrix files need a top-level 'rows' key")
    try:
        return _matrix_from_rows(data["rows"])
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def matrix_to_json(M: np.ndarray) -> dict:
    return {"rows": [[_complex_to_json(z) for z in row] for row in np.atleast_2d(M)]}


def load_pick_data(path: str, cfg: Tolerances = DEFAULT) -> PickData:
    data = _load_json(path)
    if not isinstance(data, dict) or "nodes" not in data or "targets" not in data:
        raise InputError(f"{path}: Pick data needs 'nodes' and 'targets'")
    if not isinstance(data["nodes"], list) or not isinstance(data["targets"], list):
        raise InputError(f"{path}: 'nodes' and 'targets' must be lists")
    s, p = [], []
    try:
        for nd in data["nodes"]:
            if not isinstance(nd, dict) or "s" not in nd or "p" not in nd:
                raise InputError("each node needs 's' and 'p'")
            s.append(_complex_from_json(nd["s"]))
            p.append(_complex_from_json(nd["p"]))
        targets = [_complex_from_json(w) for w in data["targets"]]
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
    return PickData(s, p, targets, cfg)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, rows) -> str:
    """CSV text of a table whose rows all have the column types of its first:
    floats printed with 17 significant digits (round-trip exact), the rest with str."""
    lines = [",".join(header)]
    if rows:
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
        lines.extend(fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def make_kernel(spec: str, data: PickData, cfg: Tolerances):
    """Gram builder for a kernel spec: szego | model:<matrix> | table:<gram>."""
    if spec == "szego":
        return szego_kernel
    if spec.startswith("model:"):
        return kernels.model(load_matrix(spec[len("model:"):]), cfg)
    if spec.startswith("table:"):
        return kernels.table(data.s, data.p, load_matrix(spec[len("table:"):]), cfg)
    raise InputError(f"unknown kernel spec {spec!r} "
                     "(use szego | model:<file> | table:<file>)")


# 10x variety._TRIM_FLOOR: hides the interior roundoff terms that _trim, cutting only edges, keeps
_PRINT_FLOOR = 1e-12


def _poly_string(P) -> str:
    terms = []
    C = P.coeffs
    floor = _PRINT_FLOOR * max(1.0, np.abs(C).max())
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            c = C[i, j]
            if abs(c) <= floor:
                continue
            base = []
            if i:
                base.append("s" + (f"^{i}" if i > 1 else ""))
            if j:
                base.append("p" + (f"^{j}" if j > 1 else ""))
            mono = " ".join(base) if base else "1"
            terms.append(f"({c.real:+.12g}{c.imag:+.12g}i) {mono}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------- commands

def cmd_classify(args, cfg: Tolerances) -> int:
    V = PencilVariety(load_matrix(args.input), cfg)
    nu = V.nu
    eigs = V.eigenvalues
    clusters = cluster_eigenvalues(eigs, float(np.linalg.norm(V.F)), cfg)
    verdict = is_distinguished(V, cfg)
    poly = defining_poly(V)
    audit = region_audit([V], default_p_grid(args.grid_radius, args.grid_n), cfg)[0]
    print(f"nu(F) = {nu:.12f}")
    print("spectrum:", ", ".join(
        f"{ev:.12g}" + (f" (x{m})" if m > 1 else "") for ev, m in clusters))
    print(f"completely non-unitary: {bool(verdict)}")
    if verdict.witnesses:
        print("unimodular witnesses:", ", ".join(f"{z:.12g}" for z in verdict.witnesses))
    print(f"distinguished: {bool(verdict)}")
    print(f"defining polynomial: {_poly_string(poly)}")
    print(f"region audit: {audit.counts}  strict {'PASS' if audit.strict_pass else 'FAIL'}"
          f"  R2-free {'PASS' if audit.r2_free else 'FAIL'}")
    if args.out:
        report = {
            "nu": nu,
            "spectrum": [_complex_to_json(z) for z in eigs],
            "cnu": bool(verdict),
            "witnesses": [_complex_to_json(z) for z in verdict.witnesses],
            "distinguished": bool(verdict),
            "defining_poly": matrix_to_json(poly.coeffs),
            "region_counts": audit.counts,
            "strict_pass": audit.strict_pass,
            "r2_free": audit.r2_free,
        }
        _write_atomic(args.out, json.dumps(report, indent=2) + "\n")
    if bool(verdict) != audit.strict_pass:
        print("error: c.n.u. verdict and region audit disagree", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _pick_problem(args, cfg: Tolerances):
    """The datum of --input, its --kernel Gram matrix, their Pick matrix and its PSD report."""
    data = load_pick_data(args.input, cfg)
    K = gram_on_nodes(data, make_kernel(args.kernel, data, cfg), cfg)
    P = pick_matrix(data, K)
    return data, K, P, psd_report(P, cfg, kernel_diag=K.gram.diagonal())


def cmd_pick(args, cfg: Tolerances) -> int:
    _, K, P, rep = _pick_problem(args, cfg)
    print("kernel gram:")
    for row in K.gram:
        print("  ", "  ".join(f"{z:.12g}" for z in row))
    print("pick matrix:")
    for row in P:
        print("  ", "  ".join(f"{z:.12g}" for z in row))
    print(f"min eigenvalue: {rep.min_eigenvalue:.12e}")
    solvable = rep.min_eigenvalue >= -cfg.tol_psd * max(1.0, float(np.linalg.norm(P)))
    print(f"positive semidefinite: {solvable}")
    if rep.null_vector is not None:
        gamma = ", ".join(f"{z:.12g}" for z in rep.null_vector)
        print(f"active: gamma = ({gamma})")
    else:
        print("active: no null vector at tolerance")
    audit = admissibility_audit(K, cfg=cfg)
    print(f"admissibility audit: {'PASS' if audit.passed else 'FAIL'}"
          + (f" ({', '.join(audit.failures)})" if audit.failures else ""))
    print(f"  ||Mp|| = {audit.mp_norm:.9f}  ||Ms|| = {audit.ms_norm:.9f}  "
          f"nu(F') = {audit.nu_fundamental:.9f}")
    print(f"  isometry defect = {audit.isometry_defect:.3e}  "
          f"intertwining = {audit.intertwine_s:.3e}  "
          f"commutator = {audit.commutator:.3e}")
    if args.out:
        report = {
            "gram": matrix_to_json(K.gram),
            "pick_matrix": matrix_to_json(P),
            "min_eigenvalue": rep.min_eigenvalue,
            "solvable_wrt_kernel": bool(solvable),
            "gamma": [_complex_to_json(z) for z in rep.null_vector]
            if rep.null_vector is not None else None,
            "admissibility": {
                "passed": audit.passed,
                "failures": list(audit.failures),
                "mp_norm": audit.mp_norm,
                "ms_norm": audit.ms_norm,
                "nu_fundamental": audit.nu_fundamental,
                "fundamental_residual": audit.fundamental_residual,
                "isometry_defect": audit.isometry_defect,
                "intertwine_s": audit.intertwine_s,
                "commutator": audit.commutator,
            },
        }
        _write_atomic(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if audit.passed else EXIT_NO_CERTIFICATE


def cmd_trace(args, cfg: Tolerances) -> int:
    data, K, P, rep = _pick_problem(args, cfg)
    scale = max(1.0, float(np.linalg.norm(P)))
    if rep.min_eigenvalue < -cfg.tol_psd * scale:
        raise NoActiveKernel("datum is not solvable against this kernel")
    if rep.null_vector is None:
        raise NoActiveKernel("no active kernel found in family")
    gamma = rep.null_vector
    model = build_extension(K, cfg)
    print(f"extension block dimension: {model.F.shape[0]}")
    for j, tr in enumerate(branch_trace(model, cfg)):
        if isinstance(tr, Exception):
            raise tr
        print(f"node {j}: {tr.branch_count} branch(es), "
              f"final alpha error {tr.alpha_errors[-1]:.3e}, "
              f"final sum error {tr.sum_errors[-1]:.3e}, "
              f"contour radius {tr.contour_radius:.3e}")
    V = model.variety
    p_grid = default_p_grid((args.grid_radius,), args.grid_n)
    s = slice_points(V, p_grid).ravel()
    p = np.repeat(p_grid, V.dim)
    w, flags, resid = unique_value(model, K, gamma, data.targets, s, p, cfg)
    rows = list(zip(s.real.tolist(), s.imag.tolist(), p.real.tolist(), p.imag.tolist(),
                    w.real.tolist(), w.imag.tolist(), resid.tolist(), flags.tolist()))
    text = _csv(["re_s", "im_s", "re_p", "im_p", "re_w", "im_w", "residual", "sheet_flag"],
                rows)
    if args.out:
        _write_atomic(args.out, text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_realize(args, cfg: Tolerances) -> int:
    data = _load_json(args.input)
    needed = {"tau", "A", "B", "C", "D"}
    if not isinstance(data, dict) or not needed.issubset(data):
        raise InputError(f"{args.input}: realization files need keys {sorted(needed)}")
    blocks = {}
    for key in needed:
        block = data[key]
        if not isinstance(block, dict) or "rows" not in block:
            raise InputError(f"{args.input}: block {key!r} needs a 'rows' matrix")
        try:
            blocks[key] = _matrix_from_rows(block["rows"])
        except InputError as exc:
            raise InputError(f"{args.input}: block {key!r}: {exc}")
    model = RealizationModel(blocks["tau"], blocks["A"], blocks["B"],
                             blocks["C"], blocks["D"])
    model.validate(cfg)
    defect = boundary_unitarity_audit(model, args.grid_n, cfg)
    print(f"boundary unitarity defect (grid {args.grid_n}x{args.grid_n}): {defect:.3e}")
    rng = np.random.default_rng(args.seed)
    s, p = zip(*(random_g_point(rng) for _ in range(20)))
    direct, other = inner_defect(model, s, p, cfg)
    agreement = [np.linalg.norm(a - b) for a, b in zip(direct, other)]
    # np.max keeps a nan that the builtin max would drop
    worst = float(np.max(agreement))
    print(f"inner-defect agreement over 20 seeded domain points: {worst:.3e}")
    passed = defect <= cfg.tol_inner
    print(f"boundary audit: {'PASS' if passed else 'FAIL'}")
    if args.out:
        _write_atomic(args.out, json.dumps(
            {"boundary_defect": defect, "inner_defect_agreement": worst,
             "passed": bool(passed)}, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_NO_CERTIFICATE


def cmd_verify(args, cfg: Tolerances) -> int:
    eq = equivalence_sweep(seed=args.seed, cfg=cfg)
    print(f"equivalence sweep ({eq.n_cases} cases): "
          f"{'PASS' if eq.passed else f'FAIL ({eq.n_failures})'}")
    pu = pu_sweep(seed=args.seed, cfg=cfg)
    print(f"pu-family sweep ({pu.n_cases} cases): "
          f"{'PASS' if pu.passed else f'FAIL ({pu.n_failures})'}")
    for sweep in (eq, pu):
        for case, why in sweep.failures[:5]:
            print(f"  {sweep.name} case {case}: {why}", file=sys.stderr)
    if args.out:
        _write_atomic(args.out, json.dumps(
            {"equivalence": {"cases": eq.n_cases, "failures": eq.n_failures},
             "pu_family": {"cases": pu.n_cases, "failures": pu.n_failures}},
            indent=2) + "\n")
    return EXIT_OK if (eq.passed and pu.passed) else EXIT_NO_CERTIFICATE


# ---------------------------------------------------------------- plumbing

def _extract_tolerance_flags(argv):
    """Split --tol-<name>=<value> flags from the rest of argv.

    <name> selects the first existing field among tol_<name>, <name> and
    <name>_tol (dashes read as underscores); the value is parsed with the
    field's declared type.
    """
    rest, overrides = [], {}
    for arg in argv:
        m = _TOL_FLAG.match(arg)
        if not m:
            rest.append(arg)
            continue
        name = m.group(1).replace("-", "_")
        candidates = (f"tol_{name}", name, f"{name}_tol")
        field = next((f for f in candidates if f in _TOL_TYPES), candidates[0])
        try:
            overrides[field] = _TOL_TYPES.get(field, float)(m.group(2))
        except ValueError:
            raise InputError(f"bad tolerance value in {arg!r}")
    return rest, overrides


def _grid_n(text: str) -> int:
    """The value of --grid-n: a grid needs at least one point."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed(text: str) -> int:
    """The value of --seed: numpy's generators take non-negative seeds only."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the process:
    parsing leaves no state in it."""
    ap = argparse.ArgumentParser(
        prog="symdisk",
        description="Distinguished varieties and Pick interpolation "
                    "on the symmetrized bidisk")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, kernel=False):
        p.add_argument("--input", required=True, help="input JSON file")
        if kernel:
            p.add_argument("--kernel", required=True,
                           help="szego | model:<matrix file> | table:<gram file>")
        p.add_argument("--out", default=None, help="machine-readable output path")

    p = sub.add_parser("classify", help="classify a pencil variety")
    common(p)
    p.add_argument("--grid-radius", type=float, action="append", default=None)
    p.add_argument("--grid-n", type=_grid_n, default=16)

    p = sub.add_parser("pick", help="Pick matrix, PSD report, admissibility audit")
    common(p, kernel=True)

    p = sub.add_parser("trace", help="uniqueness values along the extended variety")
    common(p, kernel=True)
    p.add_argument("--grid-radius", type=float, default=0.81)
    p.add_argument("--grid-n", type=_grid_n, default=25)

    p = sub.add_parser("realize", help="audit a realization model")
    common(p)
    p.add_argument("--grid-n", type=_grid_n, default=64)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("verify", help="run the randomized theorem sweeps")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    return ap


_HANDLERS = {
    "classify": cmd_classify,
    "pick": cmd_pick,
    "trace": cmd_trace,
    "realize": cmd_realize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, overrides = _extract_tolerance_flags(argv)
        cfg = with_overrides(DEFAULT, **overrides)
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
        return _HANDLERS[args.command](args, cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoActiveKernel as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SymdiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
