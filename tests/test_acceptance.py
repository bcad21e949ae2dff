"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with ``pytest -s`` or ``-v`` to see
them); tolerances and runtime budgets are pinned here and nowhere else.
"""

import time
from pathlib import Path

import numpy as np

import symdisk as sd
from symdisk import kernels
from symdisk.cli import load_matrix
from symdisk.pick import gram_on_nodes
from symdisk.sweeps import equivalence_sweep, haar_unitary, pu_sweep

from conftest import random_g_points

DATA = Path(__file__).resolve().parent.parent / "data"


def _report(n, text):
    print(f"\n[acceptance {n}] PASS: {text}")


def test_criterion_1_defining_poly_jordan_halves():
    t0 = time.monotonic()
    F = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    got = sd.defining_poly(sd.PencilVariety(F))
    # ((1+p) - 2s)^2 - 4p, expanded
    target = sd.BivarPoly.from_coeffs(np.array([
        [1.0, -2.0, 1.0],
        [-4.0, -4.0, 0.0],
        [4.0, 0.0, 0.0],
    ], dtype=complex))
    diff = np.linalg.norm(got.normalized() - target.normalized())
    elapsed = time.monotonic() - t0
    assert diff <= 1e-10
    assert elapsed < 1.0
    _report(1, f"defining polynomial matches ((1+p)-2s)^2-4p, "
               f"normalized diff {diff:.2e}, {elapsed:.3f}s")


def test_criterion_2_distinguished_verdicts():
    F1 = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    F2 = np.array([[0, 2], [0, 0]], dtype=complex)
    assert bool(sd.is_distinguished(sd.PencilVariety(F1)))
    assert bool(sd.is_distinguished(sd.PencilVariety(F2)))
    assert not bool(sd.is_distinguished(sd.PencilVariety(np.eye(2))))
    resid = sd.membership_residual(sd.PencilVariety(F1), 0, 0)[0]
    assert resid > 0.1
    _report(2, f"distinguished verdicts correct; (0,0) residual {resid:.3f} > 0.1")


def test_criterion_3_equivalence_sweep():
    t0 = time.monotonic()
    result = equivalence_sweep(n_cases=200, d_max=5, seed=2024)
    elapsed = time.monotonic() - t0
    assert result.passed, result.failures[:5]
    assert elapsed < 60.0
    _report(3, f"200 contractions, verdicts agree, zero R2 hits, {elapsed:.1f}s")


def test_criterion_4_pu_sweep():
    result = pu_sweep(n_cases=100, d_max=4, seed=2024)
    assert result.passed, result.failures[:5]
    _report(4, "100 (P,U) pairs: nu <= 1+1e-9 and witness search matches c.n.u.")


def test_criterion_5_sheet_datum_end_to_end():
    t0 = time.monotonic()
    data = sd.PickData((0, 0), (0, 0.5), (0, 0.5))
    K = gram_on_nodes(data, kernels.model(np.zeros((2, 2))))
    P = sd.pick_matrix(data, K)
    assert np.abs(P - np.ones((2, 2))).max() <= 1e-12
    rep = sd.psd_report(P)
    g = rep.null_vector
    assert g is not None
    assert abs(abs(g[0]) - abs(g[1])) <= 1e-12 and abs(g[0] + g[1]) <= 1e-12
    model = sd.build_extension(K)
    assert model.F.shape == (2, 2) and np.linalg.norm(model.F) <= 1e-12
    rng = np.random.default_rng(410)
    p = np.array([0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(50)])
    got = sd.unique_value(model, K, g, data.targets, np.zeros(50), p)
    assert got.flags.all()
    worst = float(np.abs(got.values - p).max())
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(5, f"pick [[1,1],[1,1]], gamma prop (1,-1), F = 0, f(0,p) = p "
               f"to {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_royal_datum_end_to_end():
    data = sd.PickData((0, 1), (0, 0.25), (0, -0.5))
    K = gram_on_nodes(data, kernels.model(np.array([[0, 2], [0, 0]], dtype=complex)))
    P = sd.pick_matrix(data, K)
    evs = np.linalg.eigvalsh((P + P.conj().T) / 2)
    assert min(abs(e) for e in evs) <= 1e-10
    rep = sd.psd_report(P)
    assert rep.null_vector is not None
    model = sd.build_extension(K)
    rng = np.random.default_rng(49)
    z = np.array([0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(50)])
    s, p = 2 * z, z * z
    got = sd.unique_value(model, K, rep.null_vector, data.targets, s, p)
    assert got.flags.all()
    worst_formula = float(np.abs(got.values - (-s / 2)).max())
    worst_mobius = float(np.abs(got.values - (2 * p - s) / (2 - s)).max())
    assert worst_formula <= 1e-8 and worst_mobius <= 1e-8
    # the two known interpolants agree on the grid exactly at the royal points
    grid = random_g_points(np.random.default_rng(6), 400) + \
        [sd.GammaPoint(2 * z, z * z) for z in (0.3, -0.4j, 0.2 + 0.5j)]
    gs = np.array([x.s for x in grid])
    gp = np.array([x.p for x in grid])
    agree = np.abs(-gs / 2 - (2 * gp - gs) / (2 - gs)) <= 1e-8
    locus_s, locus_p = gs[agree], gp[agree]
    assert len(locus_s) >= 3
    assert np.all(np.abs(locus_s ** 2 - 4 * locus_p) <= 1e-6)
    _report(6, f"singular pick matrix, unique value -s/2 to {worst_formula:.2e}, "
               f"locus recovers s^2 = 4p on {len(locus_s)} points")


def test_criterion_7_szego_not_active_on_unique_datum():
    data = sd.PickData((0, 1), (0, 0.25), (0, 0.5))
    P = sd.pick_matrix(data, gram_on_nodes(data, sd.szego_kernel))
    target = np.array([[1, 1], [1, 64 / 27]])
    assert np.abs(P - target).max() <= 1e-12
    rep = sd.psd_report(P)
    assert rep.min_eigenvalue > 1e-3
    assert rep.null_vector is None
    _report(7, f"szego pick matrix [[1,1],[1,64/27]], min eig "
               f"{rep.min_eigenvalue:.4f} > 0: kernel not active on extremal datum")


def test_criterion_8_realization_audits():
    one = np.array([[1.0]], dtype=complex)
    zero = np.array([[0.0]], dtype=complex)
    m = sd.RealizationModel(one, zero, one, one, zero)
    val = sd.eval_model(m, [1], [0.25])[0, 0, 0]
    assert abs(val + 0.5) <= 1e-12
    defect = sd.boundary_unitarity_audit(m, 64)
    assert defect <= 1e-10
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        h = int(rng.integers(1, 4))
        tau = haar_unitary(rng, h)
        U = haar_unitary(rng, d + h)
        model = sd.RealizationModel(tau, U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:])
        x = random_g_points(rng, 1)[0]
        direct, other = sd.inner_defect(model, [x.s], [x.p])
        worst = max(worst, float(np.linalg.norm(direct[0] - other[0])))
    assert worst <= 1e-9
    _report(8, f"eval (1,1/4) = -1/2, boundary defect {defect:.2e} on 64^2 grid, "
               f"50 random models agree to {worst:.2e}")


def test_criterion_9_branch_tracing():
    data = sd.PickData((0, 1), (0, 0.25), (0, -0.5))
    K = gram_on_nodes(data, kernels.model(np.array([[0, 2], [0, 0]], dtype=complex)))
    model = sd.build_extension(K)
    n_steps = 20
    tr = sd.branch_trace(model, sd.with_overrides(sd.DEFAULT, n_steps=n_steps),
                         radius=1e-8 * 2 ** (n_steps - 1))[0]
    assert isinstance(tr, sd.SheetTrace), tr
    assert abs(abs(tr.z_path[-1]) - 1e-8) <= 1e-22
    assert tr.branch_count == 2
    vals = sorted(tr.branch_values[-1], key=lambda v: v.real)
    root = 2 * np.sqrt(abs(tr.z_path[-1]))
    assert abs(vals[0] + root) <= 1e-6 and abs(vals[1] - root) <= 1e-6
    assert tr.sum_errors[-1] <= 1e-6
    assert max(tr.projection_defects) <= 1e-10
    _report(9, f"two branches +-2 sqrt(z), sum error {tr.sum_errors[-1]:.2e} at "
               f"|z| = 1e-8, projection defects <= {max(tr.projection_defects):.2e}")


def test_criterion_10_data_pencils_are_torus_symmetric():
    # the algebraic characterization of W_F: q(s, p) = det(F* + pF - sI)
    # satisfies q(s, p) = p^d conj(q(conj(s/p), 1/conj(p))), i.e. its
    # coefficients obey c[i, d-i-j] = conj(c[i, j]) for i + j <= d, with no
    # terms above total degree d (bound of the seeded property test)
    worst = 0.0
    for name in ("royal_pencil", "sheet_pencil", "jordan_halves"):
        F = load_matrix(str(DATA / f"{name}.json"))
        d = len(F)
        c = sd.defining_poly(sd.PencilVariety(F)).coeffs
        C = np.zeros((d + 1, d + 1), dtype=complex)
        C[:c.shape[0], :c.shape[1]] = c
        i, j = np.nonzero(np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d)
        scale = np.abs(C).max()
        mirror = np.abs(C[i, d - i - j] - C[i, j].conj()).max()
        C[i, j] = 0.0
        excess = np.abs(C).max()
        assert mirror <= 4e-15 * 2.0 ** d * scale and excess <= 4e-15 * 2.0 ** d * scale
        worst = max(worst, mirror / scale, excess / scale)
    _report(10, f"data/ pencils obey c[i, d-i-j] = conj(c[i, j]) with no terms above "
                f"degree d, worst residual {worst:.1e} of max |c|")
