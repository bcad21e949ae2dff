import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symdisk as sd
from symdisk.errors import InputError
from symdisk.gamma import REGIONS, Region
from symdisk.sweeps import ginibre_contraction, haar_unitary, random_projection
from symdisk.variety import default_p_grid


def poly_from_string_coeffs(coeffs):
    return sd.BivarPoly.from_coeffs(np.array(coeffs, dtype=complex))


def slice_samples(V, grid):
    """Every variety point over the slice grid, as arrays s and p."""
    s, p = zip(*[(s, p) for p in grid for s in sd.slice_points(V, p)[0]])
    return np.array(s, dtype=complex), np.array(p, dtype=complex)


class TestDefiningPoly:
    def test_jordan_halves_polynomial(self, jordan_halves):
        # zero set ((1+p) - 2s)^2 - 4p = 0
        target = poly_from_string_coeffs([
            [0.25, -0.5, 0.25],
            [-1.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
        ])
        got = sd.defining_poly(sd.PencilVariety(jordan_halves))
        assert got.deg_s == 2 and got.deg_p == 2
        assert np.linalg.norm(got.normalized() - target.normalized()) <= 1e-10

    def test_royal(self, royal_F):
        got = sd.defining_poly(sd.PencilVariety(royal_F))
        target = poly_from_string_coeffs([[0.0, -4.0], [0.0, 0.0], [1.0, 0.0]])
        assert np.linalg.norm(got.normalized() - target.normalized()) <= 1e-10

    def test_one_by_one(self):
        # F = [conj(beta)] has pencil beta + conj(beta) p - s, the sheet of beta
        beta = 0.3 + 0.4j
        got = sd.defining_poly(sd.PencilVariety(np.array([[np.conj(beta)]])))
        target = poly_from_string_coeffs([[beta, np.conj(beta)], [-1.0, 0.0]])
        assert np.linalg.norm(got.normalized() - target.normalized()) <= 1e-12

    def test_leading_coefficient(self, rng):
        for d in (2, 3, 4, 5):
            F = ginibre_contraction(rng, d)
            P = sd.defining_poly(sd.PencilVariety(F))
            assert P.deg_s == d
            assert abs(P.coeffs[d, 0] - (-1.0) ** d) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
    def test_matches_determinant(self, d, seed):
        rng = np.random.default_rng(seed)
        F = ginibre_contraction(rng, d)
        P = sd.defining_poly(sd.PencilVariety(F))
        for _ in range(4):
            s = 2.5 * (rng.uniform() - 0.5) + 2.5j * (rng.uniform() - 0.5)
            p = 1.5 * (rng.uniform() - 0.5) + 1.5j * (rng.uniform() - 0.5)
            det = np.linalg.det(F.conj().T + p * F - s * np.eye(d))
            scale = max(1.0, abs(det))
            assert abs(P(s, p) - det) <= 1e-9 * scale


class TestSlicePoints:
    def test_derived_slice(self, royal_F):
        V = sd.PencilVariety(royal_F)
        assert np.allclose(sd.slice_points(V, 0.25)[0], [-1, 1], atol=1e-12)

    def test_p_zero_gives_adjoint_spectrum(self, rng):
        F = ginibre_contraction(rng, 4)
        V = sd.PencilVariety(F)
        got = sd.slice_points(V, 0)[0]
        ref = sorted(np.linalg.eigvals(F.conj().T), key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-9

    def test_triangular(self, jordan_halves):
        V = sd.PencilVariety(jordan_halves)
        assert np.allclose(sd.slice_points(V, 0)[0], [0.5, 0.5], atol=1e-12)

    def test_membership_of_slices(self, rng):
        F = ginibre_contraction(rng, 3)
        V = sd.PencilVariety(F)
        for p in (0.3, -0.5j, 0.8):
            for s in sd.slice_points(V, p)[0]:
                assert sd.membership_residual(V, s, p)[0] <= 1e-8


class TestMembership:
    def test_royal_point_on(self, royal_F):
        V = sd.PencilVariety(royal_F)
        assert sd.membership_residual(V, 1, 0.25)[0] <= 1e-12

    def test_origin_off_jordan_variety(self, jordan_halves):
        # (0,0) lies on the royal variety but not on this one
        V = sd.PencilVariety(jordan_halves)
        assert sd.membership_residual(V, 0, 0)[0] > 0.1

    def test_one_by_one_sheet(self):
        beta = np.exp(0.3j)
        V = sd.PencilVariety(np.array([[np.conj(beta)]]))
        for p in (0.2, -0.7j):
            x = sd.GammaPoint(beta + np.conj(beta) * p, p)
            assert sd.membership_residual(V, x.s, x.p)[0] <= 1e-12


class TestIsDistinguished:
    def test_known_distinguished_pencils(self, jordan_halves, royal_F):
        assert bool(sd.is_distinguished(sd.PencilVariety(jordan_halves)))
        assert bool(sd.is_distinguished(sd.PencilVariety(royal_F)))

    def test_identity_not_distinguished(self):
        verdict = sd.is_distinguished(sd.PencilVariety(np.eye(2)))
        assert not verdict
        assert verdict.witnesses


class TestRegionAudit:
    def test_royal_all_open(self, royal_F):
        grid = [0.9 * np.exp(2j * np.pi * k / 12) for k in range(12)] + [0.3, 0.6]
        audit, = sd.region_audit([sd.PencilVariety(royal_F)], grid)
        assert audit.strict_pass
        assert audit.counts[Region.OPEN_G.value] == len(audit.s) == len(audit.p)

    def test_unimodular_scalar_hits_r1(self):
        audit, = sd.region_audit([sd.PencilVariety(np.array([[1.0]]))],
                                 [0.3, 0.6, 0.5j])
        assert not audit.strict_pass
        assert audit.counts[Region.R1.value] == 3

    def test_zero_matrix_passes(self):
        audit, = sd.region_audit([sd.PencilVariety(np.array([[0.0]]))])
        assert audit.strict_pass

    @pytest.mark.parametrize("planted", [False, True])
    def test_equals_pointwise_loop(self, rng, planted):
        grid = list(default_p_grid()) + [0.0, 0.3, 0.5j]
        for d in range(1, 7):
            F = ginibre_contraction(rng, d)
            if planted:
                W = haar_unitary(rng, d)
                F[0, :] = F[:, 0] = 0.0
                F[0, 0] = np.exp(2j * np.pi * rng.uniform())
                F = W @ F @ W.conj().T
            V = sd.PencilVariety(F)
            audit, = sd.region_audit([V], grid)
            samples = [sd.GammaPoint(s, p) for p in grid for s in sd.slice_points(V, p)[0]]
            labels = [REGIONS[sd.classify_region([x.s], [x.p])[0]] for x in samples]
            assert np.array_equal(audit.s, [x.s for x in samples])
            assert np.array_equal(audit.p, [x.p for x in samples])
            assert [REGIONS[c] for c in audit.codes] == labels
            assert audit.counts == {r.value: labels.count(r) for r in Region}
            assert audit.strict_pass is bool(sd.is_distinguished(V))
            assert not (planted and audit.strict_pass)
            assert audit.r2_free is True
            assert all(type(n) is int for n in audit.counts.values())


def _mixed_varieties(rng) -> list:
    """Varieties of orders 0 to 5, c.n.u. and with a planted unimodular eigenvalue."""
    Vs = [sd.PencilVariety(np.zeros((0, 0)))]
    for d in (1, 2, 3, 5, 2, 1, 4, 5):
        F = ginibre_contraction(rng, d)
        if d % 2:
            F[0, :] = F[:, 0] = 0.0
            F[0, 0] = np.exp(2j * np.pi * rng.uniform())
        Vs.append(sd.PencilVariety(F))
    return Vs


class TestRegionAudits:
    @pytest.mark.parametrize("grid", [None, [0.3], [0.0, 0.3, 0.5j, 1.2]])
    def test_reports_equal_one_variety_calls(self, rng, grid):
        Vs = _mixed_varieties(rng)
        for batched, V in zip(sd.region_audit(Vs, grid), Vs):
            one, = sd.region_audit([V], grid)
            assert np.array_equal(batched.s, one.s)
            assert np.array_equal(batched.p, one.p)
            assert np.array_equal(batched.codes, one.codes)
            assert batched.counts == one.counts
            assert (batched.strict_pass, batched.r2_free) == (one.strict_pass, one.r2_free)

    def test_one_slice_call_per_order(self, rng, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a)[-1])
            return eigvals(a)

        Vs = _mixed_varieties(rng)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        sd.region_audit(Vs)
        assert sorted(calls) == sorted({V.dim for V in Vs} - {0})

    def test_empty_list(self):
        assert sd.region_audit([]) == []

    def test_default_grid_is_the_circle_by_circle_grid(self):
        radii, n = (0.15, 0.35, 0.55, 0.75, 0.92, 1.08, 1.35), 16
        expected = [r * np.exp(2j * np.pi * k / n) for r in radii for k in range(n)]
        assert default_p_grid().tolist() == expected
        # angles 2 pi k / n with n not a power of two, bit for bit
        assert default_p_grid((0.5,), 25).tolist() == [0.5 * np.exp(2j * np.pi * k / 25)
                                                      for k in range(25)]


class TestDistinguishedProperty:
    def test_royal_full_check(self, royal_F):
        V = sd.PencilVariety(royal_F)
        grid = list(default_p_grid()) + [np.exp(2j * np.pi * k / 8) for k in range(8)]
        s, p = slice_samples(V, grid)
        assert sd.distinguished_property_check(V, s, p)

    def test_mixed_full_check_fails_on_unimodular_sheet(self):
        V = sd.PencilVariety(np.diag([1.0, 0.0]).astype(complex))
        s, p = slice_samples(V, (0.3, 0.5j, 0.8))
        assert not sd.distinguished_property_check(V, s, p)
        # on the default audit samples as well, with a c.n.u. part of order 2
        V = sd.PencilVariety(np.diag([1.0, 0.5, 0.0]).astype(complex))
        audit, = sd.region_audit([V])
        assert not sd.distinguished_property_check(V, audit.s, audit.p)


class TestTheoremLevelProperties:
    def test_w_always_meets_gamma(self, rng):
        # slice at p = 0 is the adjoint spectrum, inside the closed disk:
        # both fiber moduli at most 1 up to a band of 1e-8
        for _ in range(10):
            F = ginibre_contraction(rng, int(rng.integers(1, 6)))
            s, p = slice_samples(sd.PencilVariety(F), [0])
            z1, z2 = sd.stacked_fibers(s, p)
            assert np.all(np.maximum(np.abs(z1), np.abs(z2)) <= 1.0 + 1e-8)

    def test_pu_compress_varieties_audit(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            T = sd.pu_compress(random_projection(rng, d), haar_unitary(rng, d))
            V = sd.PencilVariety(T)
            audit, = sd.region_audit([V])
            assert audit.r2_free
            assert bool(sd.is_cnu(T)) == audit.strict_pass

    def test_never_r2(self, rng):
        for _ in range(10):
            F = ginibre_contraction(rng, int(rng.integers(1, 6)))
            audit, = sd.region_audit([sd.PencilVariety(F)])
            assert audit.r2_free


def test_rejects_non_contraction():
    with pytest.raises(InputError):
        sd.PencilVariety(np.array([[2.0]]))


def test_honours_tol_nu_override():
    F = np.diag([1.000001, 0.2])
    with pytest.raises(InputError):
        sd.PencilVariety(F)
    V = sd.PencilVariety(F, sd.with_overrides(sd.DEFAULT, tol_nu=1e-3))
    assert abs(V.nu - 1.000001) <= 1e-10
    assert np.allclose(V.eigenvalues, [0.2, 1.000001])
