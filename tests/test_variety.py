import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symdisk as sd
from symdisk.errors import InputError
from symdisk.gamma import Region
from symdisk.sweeps import ginibre_contraction, haar_unitary, random_projection
from symdisk.variety import default_p_grid


def poly_from_string_coeffs(coeffs):
    return sd.BivarPoly.from_coeffs(np.array(coeffs, dtype=complex))


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
        assert np.allclose(sd.slice_points(V, 0.25), [-1, 1], atol=1e-12)

    def test_p_zero_gives_adjoint_spectrum(self, rng):
        F = ginibre_contraction(rng, 4)
        V = sd.PencilVariety(F)
        got = sd.slice_points(V, 0)
        ref = sorted(np.linalg.eigvals(F.conj().T), key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-9

    def test_triangular(self, jordan_halves):
        V = sd.PencilVariety(jordan_halves)
        assert np.allclose(sd.slice_points(V, 0), [0.5, 0.5], atol=1e-12)

    def test_membership_of_slices(self, rng):
        F = ginibre_contraction(rng, 3)
        V = sd.PencilVariety(F)
        for p in (0.3, -0.5j, 0.8):
            for s in sd.slice_points(V, p):
                assert sd.membership_residual(V, sd.GammaPoint(s, p)) <= 1e-8


class TestMembership:
    def test_royal_point_on(self, royal_F):
        V = sd.PencilVariety(royal_F)
        assert sd.membership_residual(V, sd.GammaPoint(1, 0.25)) <= 1e-12

    def test_origin_off_jordan_variety(self, jordan_halves):
        # (0,0) lies on the royal variety but not on this one
        V = sd.PencilVariety(jordan_halves)
        assert sd.membership_residual(V, sd.GammaPoint(0, 0)) > 0.1

    def test_one_by_one_sheet(self):
        beta = np.exp(0.3j)
        V = sd.PencilVariety(np.array([[np.conj(beta)]]))
        for p in (0.2, -0.7j):
            x = sd.GammaPoint(beta + np.conj(beta) * p, p)
            assert sd.membership_residual(V, x) <= 1e-12


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
        audit = sd.region_audit(sd.PencilVariety(royal_F), grid)
        assert audit.strict_pass
        assert audit.counts[Region.OPEN_G.value] == len(audit.samples)

    def test_unimodular_scalar_hits_r1(self):
        audit = sd.region_audit(sd.PencilVariety(np.array([[1.0]])),
                                [0.3, 0.6, 0.5j])
        assert not audit.strict_pass
        assert audit.counts[Region.R1.value] == 3

    def test_zero_matrix_passes(self):
        audit = sd.region_audit(sd.PencilVariety(np.array([[0.0]])))
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
            audit = sd.region_audit(V, grid)
            samples = [sd.GammaPoint(s, p) for p in grid for s in sd.slice_points(V, p)]
            labels = [sd.classify_region(x) for x in samples]
            assert audit.samples == tuple(samples)
            assert audit.counts == {r.value: labels.count(r) for r in Region}
            assert audit.offenders == tuple(
                (x, r) for x, r in zip(samples, labels) if r in (Region.R1, Region.R2))
            assert audit.strict_pass is bool(sd.is_distinguished(V))
            assert not (planted and audit.strict_pass)
            assert audit.r2_free is True
            assert all(type(n) is int for n in audit.counts.values())


class TestRoyalContainment:
    def test_scalar_sheet(self):
        beta = np.exp(0.4j)
        V = sd.PencilVariety(np.array([[np.conj(beta)]]))
        assert sd.royal_containment(V, beta)

    def test_royal_variety_has_no_unimodular_sheet(self, royal_F):
        assert not sd.royal_containment(sd.PencilVariety(royal_F), 1.0)

    def test_diag_mixture(self):
        V = sd.PencilVariety(np.diag([1.0, 0.5]).astype(complex))
        assert sd.royal_containment(V, 1.0)
        assert not sd.royal_containment(V, -1.0)

    def test_non_unimodular_beta_sampled_only(self):
        # for |beta| != 1 only the sampled pencil check is reported
        beta = 0.5
        V = sd.PencilVariety(np.diag([np.conj(beta), 0.1]).astype(complex))
        assert sd.royal_containment(V, beta)
        assert not sd.royal_containment(V, 0.3)


class TestDistinguishedProperty:
    def test_royal_full_check(self, royal_F):
        V = sd.PencilVariety(royal_F)
        grid = list(default_p_grid()) + [np.exp(2j * np.pi * k / 8) for k in range(8)]
        samples = [sd.GammaPoint(s, p) for p in grid for s in sd.slice_points(V, p)]
        assert sd.distinguished_property_check(V, samples)

    def test_identity_g_closure_vacuous(self):
        V = sd.PencilVariety(np.eye(2))
        samples = [sd.GammaPoint(s, p) for p in (0.3, 0.5j, 0.8)
                   for s in sd.slice_points(V, p)]
        assert sd.distinguished_property_check(V, samples, g_closure_only=True)

    def test_mixed_full_check_fails_on_unimodular_sheet(self):
        V = sd.PencilVariety(np.diag([1.0, 0.0]).astype(complex))
        samples = [sd.GammaPoint(s, p) for p in (0.3, 0.5j, 0.8)
                   for s in sd.slice_points(V, p)]
        assert not sd.distinguished_property_check(V, samples)
        assert sd.distinguished_property_check(V, samples, g_closure_only=True)


class TestTheoremLevelProperties:
    def test_w_always_meets_gamma(self, rng):
        # slice at p = 0 is the adjoint spectrum, inside the closed disk
        from symdisk.gamma import in_closed_gamma
        for _ in range(10):
            F = ginibre_contraction(rng, int(rng.integers(1, 6)))
            V = sd.PencilVariety(F)
            for s in sd.slice_points(V, 0):
                assert in_closed_gamma(sd.GammaPoint(s, 0), tol=1e-8)

    def test_pu_compress_varieties_audit(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            T = sd.pu_compress(random_projection(rng, d), haar_unitary(rng, d))
            V = sd.PencilVariety(T)
            audit = sd.region_audit(V)
            assert audit.r2_free
            assert bool(sd.is_cnu(T)) == audit.strict_pass

    def test_never_r2(self, rng):
        for _ in range(10):
            F = ginibre_contraction(rng, int(rng.integers(1, 6)))
            audit = sd.region_audit(sd.PencilVariety(F))
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
