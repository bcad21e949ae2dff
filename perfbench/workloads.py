"""Seeded inputs and fixed command lists of the four benchmark workloads.

Every workload is a list of CLI argument vectors, each paired with a check
that reads the command's stdout and ``--out`` file and returns how many domain
items the command processed.  Every command must exit 0.  The list has the same length and
the same shape (dimensions, node counts, model sizes) for every seed; the
seed only moves the numbers inside the inputs.  No symdisk code runs here:
inputs are built and scaled with numpy and the references in
:mod:`checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

N_SLICES = 7 * 16          # the classify region audit's default p grid
TRACE_GRID_N = 64          # trace grid, larger than the CLI default of 25
TRACE_GRID_RADIUS = 0.81   # the CLI default
REALIZE_GRID_N = 64        # the CLI default
CLASSIFY_DIMS = range(2, 17, 2)   # every second d keeps rounds short
ROYAL_DATA = 3             # seeded two-node royal data
SHEET_NODES = (2, 3, 4, 5)
SZEGO_NODES = (3, 4)
REALIZE_SIZES = ((1, 1), (2, 3), (3, 2), (4, 4), (1, 8), (8, 1), (6, 5), (8, 8))  # (h, d)

# Input exclusions, each a fault recorded in CHANGES.md (see README.md):
ROYAL_MIN_MODULUS = 0.1    # branch_trace fails near the branch point z = 0
MIN_NODE_GAP = 0.15        # kernel_basis_operators rejects close sheet nodes


@dataclass(frozen=True)
class Command:
    argv: list
    check: Callable[[str], int]   # stdout -> items processed


def build(name: str, seed: int, work: Path, root: Path) -> list:
    """Write the inputs of workload ``name`` under ``work``; return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[name]])
    return _BUILDERS[name](rng, seed, work, root / "data")


# ------------------------------------------------------------ generators

def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def scaled_ginibre(rng: np.random.Generator, d: int, nu: float) -> np.ndarray:
    """Ginibre matrix scaled to reference numerical radius ``nu``."""
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    return Z * (nu / checks.numerical_radius_ref(Z))


def disk_points(rng: np.random.Generator, n: int, rmin: float, rmax: float,
                gap: float) -> np.ndarray:
    """n points with rmin <= |z| <= rmax, pairwise at least ``gap`` apart."""
    pts: list = []
    while len(pts) < n:
        z = np.sqrt(rng.uniform(rmin ** 2, rmax ** 2)) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= gap for w in pts):
            pts.append(z)
    return np.array(pts)


def g_points(rng: np.random.Generator, n: int, rmax: float, gap: float):
    """n points (z1 + z2, z1 z2) with |z1|, |z2| <= rmax, pairwise ``gap`` apart."""
    s: list = []
    p: list = []
    while len(s) < n:
        z1, z2 = np.sqrt(rng.uniform(0, rmax ** 2, 2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        if all(abs(z1 + z2 - a) + abs(z1 * z2 - b) >= gap for a, b in zip(s, p)):
            s.append(z1 + z2)
            p.append(z1 * z2)
    return np.array(s), np.array(p)


def unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


# ------------------------------------------------------------ files

def _c(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _matrix_json(M) -> dict:
    return {"rows": [[_c(z) for z in row] for row in np.atleast_2d(M)]}


def write_matrix(path: Path, M) -> str:
    path.write_text(json.dumps(_matrix_json(M)))
    return str(path)


def write_datum(path: Path, s, p, targets) -> str:
    path.write_text(json.dumps({
        "nodes": [{"s": _c(a), "p": _c(b)} for a, b in zip(s, p)],
        "targets": [_c(w) for w in targets]}))
    return str(path)


def read_datum(path: Path):
    obj = json.loads(path.read_text())
    s = np.array([complex(x["s"]["re"], x["s"]["im"]) for x in obj["nodes"]])
    p = np.array([complex(x["p"]["re"], x["p"]["im"]) for x in obj["nodes"]])
    w = np.array([complex(t["re"], t["im"]) for t in obj["targets"]])
    return s, p, w


# ------------------------------------------------------------ classify

def _classify(rng, seed, work, data):
    cases = []
    for idx, d in enumerate(CLASSIFY_DIMS):
        if idx % 2 == 0:
            # plant beta * I_k as a reducing block in a Haar-random basis; the
            # c.n.u. block keeps nu < 1 so its spectrum stays off the circle
            k = max(1, d // 4)
            beta = unimodular(rng)
            block = np.zeros((d, d), dtype=complex)
            block[:k, :k] = beta * np.eye(k)
            block[k:, k:] = scaled_ginibre(rng, d - k, rng.uniform(0.5, 0.95))
            W = haar_unitary(rng, d)
            F = W @ block @ W.conj().T
            cases.append((f"F{d:02d}.json", F, beta, k))
        else:
            # nu = 1 exactly, up to a pullback that keeps roundoff below 1
            cases.append((f"F{d:02d}.json", scaled_ginibre(rng, d, 1.0 - 1e-12), None, 0))
    for fname in ("jordan_halves.json", "royal_pencil.json"):
        cases.append((fname, checks.matrix_from_json(json.loads((data / fname).read_text())),
                      None, 0))

    commands = []
    for i, (fname, F, beta, k) in enumerate(cases):
        path = write_matrix(work / fname, F)
        out = work / f"classify-{i}.json"
        argv = ["classify", "--input", path, "--out", str(out)]

        def check(stdout, F=F, beta=beta, k=k, out=out, i=i):
            report = json.loads(out.read_text())
            poly_rng = np.random.default_rng([seed, i])
            return checks.check_classify(F, report, beta, k, N_SLICES, poly_rng)

        commands.append(Command(argv, check))
    return commands


# ------------------------------------------------------------ trace

def _trace(rng, seed, work, data):
    royal_kernel = "model:" + str(data / "royal_pencil.json")
    sheet_kernel = "model:" + str(data / "sheet_pencil.json")
    extremal = []   # (datum path, kernel, curve, omega, closed-form gram, targets)
    for i in range(ROYAL_DATA):
        z = disk_points(rng, 2, ROYAL_MIN_MODULUS, 0.8, MIN_NODE_GAP)
        omega = unimodular(rng)
        s, p = 2 * z, z * z
        path = write_datum(work / f"royal-{i}.json", s, p, -omega * z)
        extremal.append((path, royal_kernel, "royal", omega,
                         checks.royal_model_kernel(s, p), -omega * z))
    for n in SHEET_NODES:
        q = disk_points(rng, n, 0.0, 0.85, MIN_NODE_GAP)
        omega = unimodular(rng)
        path = write_datum(work / f"sheet-{n}.json", np.zeros(n), q, omega * q)
        extremal.append((path, sheet_kernel, "sheet", omega,
                         checks.sheet_model_kernel(q), omega * q))
    for fname, kernel, curve in (("datum_royal.json", royal_kernel, "royal"),
                                 ("datum_sheet.json", sheet_kernel, "sheet")):
        s, p, w = read_datum(data / fname)
        gram = checks.royal_model_kernel(s, p) if curve == "royal" \
            else checks.sheet_model_kernel(p)
        extremal.append((str(data / fname), kernel, curve, 1.0, gram, w))

    commands = []
    for i, (path, kernel, curve, omega, gram, targets) in enumerate(extremal):
        commands.append(_pick_command(work, f"pick-{i}", path, kernel, gram, targets, True))
        out = work / f"trace-{i}.csv"
        argv = ["trace", "--input", path, "--kernel", kernel, "--out", str(out),
                "--grid-n", str(TRACE_GRID_N), "--grid-radius", str(TRACE_GRID_RADIUS)]

        def check(stdout, out=out, curve=curve, omega=omega):
            dim = int(stdout.split("extension block dimension:")[1].split()[0])
            return checks.check_trace_rows(out.read_text(), curve, omega, TRACE_GRID_N,
                                           TRACE_GRID_RADIUS, dim)

        commands.append(Command(argv, check))
    for n in SZEGO_NODES:
        # non-extremal: targets c s / 2 with |c| < 1 and nodes well inside G
        s, p = g_points(rng, n, 0.7, MIN_NODE_GAP)
        targets = 0.7 * unimodular(rng) * s / 2
        path = write_datum(work / f"szego-{n}.json", s, p, targets)
        commands.append(_pick_command(work, f"szego-{n}", path, "szego",
                                      checks.szego_kernel(s, p), targets, False))
    return commands


def _pick_command(work, tag, path, kernel, gram, targets, extremal):
    out = work / f"{tag}-report.json"
    argv = ["pick", "--input", path, "--kernel", kernel, "--out", str(out)]

    def check(stdout):
        checks.check_pick(json.loads(out.read_text()), gram, targets, extremal)
        return 0

    return Command(argv, check)


# ------------------------------------------------------------ realize

def _realize(rng, seed, work, data):
    models = []
    for h, d in REALIZE_SIZES:
        tau = haar_unitary(rng, h)
        U = haar_unitary(rng, d + h)
        models.append((f"model-{h}-{d}.json", tau, U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:]))
    mob = json.loads((data / "mobius_model.json").read_text())
    models.append(("mobius_model.json",) + tuple(
        checks.matrix_from_json(mob[k]) for k in ("tau", "A", "B", "C", "D")))

    commands = []
    for i, (fname, tau, A, B, C, D) in enumerate(models):
        path = work / fname
        path.write_text(json.dumps({k: _matrix_json(M) for k, M in
                                    zip(("tau", "A", "B", "C", "D"), (tau, A, B, C, D))}))
        out = work / f"realize-{i}.json"
        argv = ["realize", "--input", str(path), "--out", str(out),
                "--grid-n", str(REALIZE_GRID_N), "--seed", str(seed + i)]

        def check(stdout, out=out, model=(tau, A, B, C, D)):
            checks.check_realize(json.loads(out.read_text()),
                                 checks.boundary_defect_ref(*model))
            return REALIZE_GRID_N ** 2

        commands.append(Command(argv, check))
    return commands


# ------------------------------------------------------------ verify

def _verify(rng, seed, work, data):
    out = work / "verify.json"
    return [Command(["verify", "--seed", str(seed), "--out", str(out)],
                    lambda stdout: checks.check_verify(json.loads(out.read_text())))]


_BUILDERS = {"verify": _verify, "classify": _classify, "trace": _trace, "realize": _realize}
_WORKLOAD_IDS = {name: i for i, name in enumerate(_BUILDERS)}
WORKLOADS = tuple(_BUILDERS)
