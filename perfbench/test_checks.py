"""Tests of the benchmark's independent checks on closed-form cases.

    python -m pytest perfbench
"""

from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
import workloads
from checks import CheckFailed


def test_numerical_radius_of_normal_matrix_is_spectral_radius():
    F = np.diag([0.3, -0.7j, 0.5 + 0.5j])
    assert checks.numerical_radius_ref(F) == pytest.approx(np.sqrt(0.5), abs=1e-14)


@pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.2j, 0.6), (0.0, 2.0)])
def test_numerical_radius_of_2x2_jordan_form(a, b):
    # nu([[a, b], [0, a]]) = |a| + |b| / 2
    F = np.array([[a, b], [0, a]], dtype=complex)
    assert checks.numerical_radius_ref(F) == pytest.approx(abs(a) + abs(b) / 2, abs=1e-14)


def test_reference_finds_peak_between_coarse_samples():
    # the true maximum sits half-way between two samples of a 257-point grid
    F = np.diag([1, (1 + 2e-5) * np.exp(1j * 100.5 * 2 * np.pi / 257)])
    assert checks.numerical_radius_ref(F) == pytest.approx(1.00002, abs=1e-13)
    assert len(checks.level_set_points(F, 1.0)) > 0
    assert len(checks.level_set_points(F, 1.00002 + 1e-8)) == 0
    with pytest.raises(CheckFailed, match="reference"):
        checks.check_numerical_radius(F, 1.0)


def test_level_set_points_lie_on_the_support_function():
    F = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    r = 0.8
    z = checks.level_set_points(F, r)
    assert len(z) > 0
    H = (np.conj(z)[:, None, None] * F + z[:, None, None] * F.conj().T) / 2
    eigs = np.linalg.eigvalsh(H)
    assert np.abs(eigs - r).min(axis=1).max() < 1e-9


def test_check_numerical_radius_enclosure():
    F = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    assert checks.check_numerical_radius(F, 1.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(CheckFailed):
        checks.check_numerical_radius(F, 1.0 - 1e-6)


def test_check_spectrum_is_a_multiset_comparison():
    F = np.diag([0.1, 0.1, 0.4j])
    checks.check_spectrum(F, [0.4j, 0.1, 0.1])
    with pytest.raises(CheckFailed):
        checks.check_spectrum(F, [0.4j, 0.4j, 0.1])
    with pytest.raises(CheckFailed):
        checks.check_spectrum(F, [0.4j, 0.1])


def test_defining_poly_of_royal_pencil():
    # det(F* + p F - s I) = s^2 - 4p for F = [[0, 2], [0, 0]]
    F = np.array([[0, 2], [0, 0]], dtype=complex)
    C = np.zeros((3, 2), dtype=complex)
    C[2, 0], C[0, 1] = 1, -4
    checks.check_defining_poly(F, C, np.random.default_rng(0))
    C[0, 1] = -3.9
    with pytest.raises(CheckFailed):
        checks.check_defining_poly(F, C, np.random.default_rng(0))


def test_royal_model_kernel_matches_null_vectors():
    z = np.array([0.3 + 0.1j, -0.5j, 0.7])
    s, p = 2 * z, z * z
    F = np.array([[0, 2], [0, 0]], dtype=complex)
    us = []
    for a, b in zip(s, p):
        _, _, Vh = np.linalg.svd(F + np.conj(b) * F.conj().T - np.conj(a) * np.eye(2))
        us.append(Vh[-1].conj())
    direct = np.array([[np.vdot(us[i], us[j]) / (1 - p[i] * np.conj(p[j]))
                        for j in range(3)] for i in range(3)])
    assert np.allclose(np.abs(direct), np.abs(checks.royal_model_kernel(s, p)), atol=1e-14)


def test_royal_and_sheet_pick_matrices_have_rank_one():
    omega = np.exp(0.7j)
    z = np.array([0.3 + 0.1j, -0.5j])
    P = checks.pick_of(checks.royal_model_kernel(2 * z, z * z), -omega * z)
    assert np.linalg.eigvalsh(P)[0] == pytest.approx(0, abs=1e-14)
    q = np.array([0.1, 0.5j, -0.3 - 0.2j, 0.6])
    P = checks.pick_of(checks.sheet_model_kernel(q), omega * q)
    assert np.linalg.matrix_rank(P, tol=1e-12) == 1


def test_szego_kernel_is_one_at_the_origin_and_hermitian():
    s = np.array([0.0, 0.4 + 0.2j, -0.3j])
    p = np.array([0.0, 0.1j, 0.02])
    K = checks.szego_kernel(s, p)
    assert K[0, 0] == 1
    assert np.allclose(K, K.conj().T, atol=1e-15)
    assert np.linalg.eigvalsh(K)[0] > 0


def _royal_csv(omega, grid_n, radius, w_shift=0.0):
    lines = ["re_s,im_s,re_p,im_p,re_w,im_w,residual,sheet_flag"]
    for k in range(grid_n):
        p = radius * np.exp(2j * np.pi * k / grid_n)
        for s in (2 * np.sqrt(p), -2 * np.sqrt(p)):
            w = -omega * s / 2 + w_shift
            lines.append(",".join(f"{v:.17g}" for v in
                                  (s.real, s.imag, p.real, p.imag, w.real, w.imag, 1e-16))
                         + ",1")
    return "\n".join(lines) + "\n"


def test_trace_rows_on_the_royal_curve():
    omega = np.exp(2.1j)
    assert checks.check_trace_rows(_royal_csv(omega, 8, 0.81), "royal", omega, 8, 0.81, 2) == 16
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_trace_rows(_royal_csv(omega, 8, 0.81, 1e-6), "royal", omega, 8, 0.81, 2)
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_trace_rows(_royal_csv(omega, 8, 0.81), "royal", omega, 8, 0.81, 3)


def test_boundary_defect_of_mobius_model_and_of_a_broken_block():
    one, zero = np.eye(1), np.zeros((1, 1))
    assert checks.boundary_defect_ref(one, zero, one, one, zero) < 1e-13
    assert checks.boundary_defect_ref(one, zero, 0.5 * one, one, zero) > 0.1


def test_check_verify_needs_full_counts_and_no_failure():
    good = {"equivalence": {"cases": 200, "failures": 0},
            "pu_family": {"cases": 100, "failures": 0}}
    assert checks.check_verify(good) == 300
    with pytest.raises(CheckFailed):
        checks.check_verify({**good, "pu_family": {"cases": 100, "failures": 1}})
    with pytest.raises(CheckFailed):
        checks.check_verify({**good, "equivalence": {"cases": 199, "failures": 0}})


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.names = ["a", "b", "c"]
    t.spans = [[0, 0.0, 10.0, -1], [1, 2.0, 5.0, 0], [2, 3.0, 4.0, 1], [2, 6.0, 8.0, 0]]
    totals = t.layer_totals()
    assert totals["a"] == (1, pytest.approx(5.0))
    assert totals["b"] == (1, pytest.approx(2.0))
    assert totals["c"] == (2, pytest.approx(3.0))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    root = Path(__file__).resolve().parent.parent

    def files(seed, where):
        commands = workloads.build(name, seed, where, root)
        return len(commands), {f.name: f.read_bytes() for f in sorted(where.iterdir())}

    first = files(3, tmp_path / "a")
    assert files(3, tmp_path / "b") == first
    other = files(4, tmp_path / "c")
    assert other[0] == first[0]
    if first[1]:
        assert other[1] != first[1]


def test_tracer_wraps_every_reference_and_restores_them():
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from symdisk import linalg, numrange, variety

    original = linalg.spectrum
    t = tracer.Tracer()
    t.install()
    try:
        assert numrange.spectrum is not original and linalg.spectrum is not original
        variety.PencilVariety(np.array([[0.5, 1], [0, 0.5]]))
        numrange.is_cnu(np.eye(2) * 0.5)
    finally:
        t.uninstall()
    assert numrange.spectrum is original and linalg.spectrum is original
    totals = t.layer_totals()
    assert totals["numrange.numerical_radius"][0] == 2
    assert totals["variety.PencilVariety"][0] == 1
    assert totals["numrange.is_cnu"][0] == 1 and totals["linalg.spectrum"][0] == 1
    assert all(self_s >= 0 for _, self_s in totals.values())
    assert t.ratios(totals)["numrange.numerical_radius.repeat_ratio"] == 1.0
