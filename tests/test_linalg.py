
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symdisk as sd
from symdisk.errors import IllPlacedContour, InputError, NumericalError
from symdisk.linalg import any_singular, audit_projections, psd_eigh, solve_stack


def _sorted(eigs):
    return sorted(eigs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


class TestSpectrum:
    def test_nilpotent(self):
        assert np.allclose(sd.spectrum([[0, 2], [0, 0]]), [0, 0])

    def test_identity(self):
        assert np.allclose(_sorted(sd.spectrum(np.eye(2))), [1, 1])

    def test_triangular_readoff(self):
        assert np.allclose(_sorted(sd.spectrum([[0.5, 1], [0, 0.5]])), [0.5, 0.5])

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            sd.spectrum(np.ones((2, 3)))

    def test_residual_oracle(self, rng):
        # sigma_min(A - lambda I) <= tol * ||A|| certifies each eigenvalue
        for d in (2, 3, 5, 8, 13):
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            norm = np.linalg.norm(A, 2)
            for ev in sd.spectrum(A):
                resid = np.linalg.svd(A - ev * np.eye(d), compute_uv=False)[-1]
                assert resid <= 1e-10 * norm

    def test_against_numpy(self, rng):
        for d in (2, 4, 7, 12, 16):
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mine = _sorted(sd.spectrum(A))
            ref = _sorted(np.linalg.eigvals(A))
            assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-10 * np.linalg.norm(A)

    def test_unitary_spectrum_on_circle(self, rng):
        from symdisk.sweeps import haar_unitary
        for d in (2, 5, 9):
            U = haar_unitary(rng, d)
            assert np.allclose(np.abs(sd.spectrum(U)), 1.0, atol=1e-10)

    def test_repeated_and_defective(self):
        A = np.diag([1.0, 1.0, 2.0]).astype(complex)
        A[0, 1] = 3.0
        assert np.allclose(_sorted(sd.spectrum(A)), [1, 1, 2], atol=1e-7)

    def test_similarity_invariance(self, rng):
        from symdisk.sweeps import haar_unitary
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        W = haar_unitary(rng, 5)
        a = _sorted(sd.spectrum(A))
        b = _sorted(sd.spectrum(W @ A @ W.conj().T))
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10 * np.linalg.norm(A)


class TestAsComplexMatrix:
    def test_non_contiguous_input(self):
        # a transposed or reversed complex matrix has a non-contiguous last axis
        F = np.arange(4).reshape(2, 2) * 0.1 + 0.1j
        assert sd.numerical_radius(F.T) == sd.numerical_radius(np.ascontiguousarray(F.T))
        assert np.array_equal(sd.spectrum(F[:, ::-1]),
                              sd.spectrum(np.ascontiguousarray(F[:, ::-1])))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError, match="non-finite"):
            sd.spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]).T)


class TestPsdEigh:
    def test_diag(self):
        vals, _ = psd_eigh(np.diag([1.0, 2.0]))
        assert np.allclose(vals, [1, 2])

    def test_reconstruction(self, rng):
        Z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = Z @ Z.conj().T
        vals, vecs = psd_eigh(H)
        resid = np.linalg.norm((vecs * vals) @ vecs.conj().T - H)
        assert resid <= 1e-12 * np.linalg.norm(H)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            psd_eigh([[0, 1], [0, 0]])


class TestClustering:
    def test_eigenvalues_agree_with_index_clusters(self):
        from symdisk.linalg import cluster_eigenvalues, cluster_indices
        # exact ties, a near tie within tol_cluster, and a tie in the real part
        eigs = np.array([0.5, 1j, 0.5, 0.5 + 1e-12, -1, 1j, 0.5 + 0.5j, 0.5 - 0.5j])
        groups = cluster_indices(eigs, sd.DEFAULT.tol_cluster)
        assert sorted(map(len, groups)) == [1, 1, 1, 2, 3]
        assert cluster_eigenvalues(eigs, 1.0) == [
            (complex(np.mean(eigs[g])), len(g)) for g in groups]
        assert [len(g) for g in groups] == [1, 2, 1, 3, 1]   # (real, imag) order

    def test_mean_taken_once_per_join(self, monkeypatch):
        # the first cluster whose np.mean lies within tol, as comparing every
        # value with every mean gives, with np.mean taken once per join
        from symdisk.linalg import cluster_indices
        rng = np.random.default_rng(3)
        centres = rng.normal(size=6) + 1j * rng.normal(size=6)
        values = centres[rng.integers(0, 6, size=40)] + 1e-9 * rng.normal(size=40)
        ref: list = []
        for i in np.argsort(values, kind="stable").tolist():
            g = next((g for g in ref if abs(values[i] - np.mean(values[g])) <= 1e-8), None)
            ref.append([i]) if g is None else g.append(i)
        mean, calls = np.mean, []
        monkeypatch.setattr(np, "mean", lambda a: calls.append(len(a)) or mean(a))
        assert cluster_indices(values, 1e-8) == ref
        assert len(ref) == 6 and len(calls) == len(values) - len(ref)


class TestNullSpace:
    def test_simple(self):
        basis = sd.null_space(np.array([[0, 2], [0, 0]], dtype=complex))
        assert len(basis) == 1
        assert abs(abs(basis[0][0]) - 1) < 1e-12 and abs(basis[0][1]) < 1e-12

    def test_full_rank_empty(self):
        assert sd.null_space(np.eye(2)) == []

    def test_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            sd.null_space(np.eye(2), 1e-8)

    def test_pencil_kernel_at_royal_point(self, royal_F):
        # direct linear solve: at (2z, z^2) the kernel is spanned by (1, conj(z))
        z = 0.5
        M = royal_F + np.conj(z * z) * royal_F.conj().T - np.conj(2 * z) * np.eye(2)
        basis = sd.null_space(M)
        assert len(basis) == 1
        v = basis[0] / basis[0][0]
        assert np.allclose(v, [1, np.conj(z)], atol=1e-12)


class TestPsdSqrt:
    def test_diag(self):
        assert np.allclose(sd.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.allclose(sd.psd_sqrt(np.zeros((3, 3))), 0)

    def test_square_back(self, rng):
        Z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        M = Z @ Z.conj().T
        R = sd.psd_sqrt(M)
        assert np.linalg.norm(R @ R - M) <= 1e-12 * np.linalg.norm(M)

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            sd.psd_sqrt(np.diag([1.0, -1.0]))


class TestSpectralProjection:
    def test_diag_split(self):
        P = sd.spectral_projection(np.diag([0.0, 2.0]).astype(complex), 0.0, 1.0)
        assert P.enclosed_count == 1
        assert np.allclose(P.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_encloses_all(self):
        P = sd.spectral_projection(np.array([[0, 1], [0, 0]], dtype=complex), 0.0, 1.0)
        assert P.enclosed_count == 2
        assert np.allclose(P.matrix, np.eye(2), atol=1e-12)

    def test_encloses_none_is_zero(self):
        P = sd.spectral_projection(np.diag([3.0, 4.0]).astype(complex), 0.0, 1.0)
        assert P.enclosed_count == 0
        assert np.allclose(P.matrix, 0, atol=1e-12)

    def test_pencil_rank_one(self, royal_F):
        # eigendecomposition oracle: F + zF* has eigenvalues +-2 sqrt(z) = +-0.2
        z = 0.01
        A = royal_F + z * royal_F.conj().T
        evs = np.linalg.eigvals(A)
        assert np.allclose(sorted(evs.real), [-0.2, 0.2], atol=1e-12)
        P = sd.spectral_projection(A, 0.2, 0.05)
        assert P.enclosed_count == 1
        assert P.idempotency_defect <= 1e-10

    def test_empty_matrix(self):
        P = sd.spectral_projection(np.zeros((0, 0)), 0.0, 1.0)
        assert P.matrix.shape == (0, 0) and P.enclosed_count == 0

    def test_ill_placed_contour(self):
        with pytest.raises(IllPlacedContour):
            sd.spectral_projection(np.diag([1.0, 3.0]).astype(complex), 0.0, 1.001)


class TestMatrixSign:
    def test_few_inverses(self, monkeypatch):
        counts = []
        inv = np.linalg.inv

        def counted(a):
            counts.append(len(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        # an eigenvalue at ratio 0.87 of the radius needs 251 trapezoid nodes
        # on the circle; the Cayley map and each sign step take one inverse
        P = sd.spectral_projection(np.diag([0.0, 0.75]).astype(complex), 0.0, np.sqrt(0.75))
        assert len(counts) <= 12
        assert P.idempotency_defect <= 1e-14

    def test_step_cap_raises(self):
        # a cluster 1e-4 wide at 0 behind a strongly non-normal triangle,
        # ||P|| ~ 2e7: the disk of radius 0.01 lies in the pseudospectrum, the
        # scaled steps hover at roundoff and never fall to 1e-2
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
        T = np.diag(np.r_[5e-5 * 1j ** np.arange(4), -0.5 + 0.1j * np.arange(4)])
        A = Q @ (T + 4 * np.triu(np.ones((8, 8)), 1)) @ Q.conj().T
        with pytest.raises(NumericalError, match="did not converge"):
            sd.spectral_projection(A, 0.0, 0.01)


class TestSolveStack:
    @staticmethod
    def _transfer_stack(h):
        """T = 2I + s(D - tau) - 2p D tau with tau = I and D = diag(1, 0.3, ...)
        on a torus row with (s, p) = (0, 1) planted at index 3, where
        T = 2(I - D) = diag(0, 1.4, ...) exactly, and the rhs [C | I]."""
        D = np.diag([1.0] + [0.3] * (h - 1)).astype(complex)
        z1 = np.exp(2j * np.pi * 0.3)
        z2 = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
        s = np.insert(z1 + z2, 3, 0.0)[:, None, None]
        p = np.insert(z1 * z2, 3, 1.0)[:, None, None]
        T = 2.0 * np.eye(h)[None] + s * (D - np.eye(h)) - 2.0 * p * D
        rhs = np.broadcast_to(np.hstack([np.ones((h, 1)), np.eye(h)]), (len(T), h, h + 1))
        return T, rhs

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_exactly_singular_member_is_nan_alone(self, h):
        T, rhs = self._transfer_stack(h)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(T, rhs)
        for out, one in ((solve_stack(T, rhs), lambda k: np.linalg.solve(T[k], rhs[k])),
                         (solve_stack(T), lambda k: np.linalg.inv(T[k]))):
            assert np.isnan(out[3]).all()
            for k in np.delete(np.arange(len(T)), 3):
                assert np.array_equal(out[k], one(k))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_without_rhs_is_inv(self, rng, d):
        M = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        assert np.array_equal(solve_stack(M), np.linalg.inv(M))


class TestAnySingular:
    @staticmethod
    def _svd_shapes(monkeypatch, M, rule):
        shapes = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        try:
            return any_singular(M, solve_stack(M), rule), shapes
        finally:
            monkeypatch.setattr(np.linalg, "svd", svd)

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_only_the_singular_member_reaches_the_svd(self, monkeypatch, h):
        T, _ = TestSolveStack._transfer_stack(h)
        assert self._svd_shapes(monkeypatch, T, 1e-12) == (True, [(1, h, h)])
        assert self._svd_shapes(monkeypatch, np.delete(T, 3, axis=0), 1e-12) == (False, [])

    def test_rule_decides_the_undecided(self, monkeypatch):
        # sigma_min / sigma_max = 1e-9: past the screen margin, so the SVD
        # runs, and singular only under a rule of 1e-9 or more
        M = np.diag([1.0, 1e-9]).astype(complex)[None]
        assert self._svd_shapes(monkeypatch, M, 1e-12) == (False, [(1, 2, 2)])
        assert self._svd_shapes(monkeypatch, M, 1e-9)[0]


class TestAuditProjections:
    def test_oblique_projection_passes_on_its_own_scale(self):
        # P = [[1, t], [0, 0]] is idempotent with ||P||_2 ~ t; moving its
        # zero to 1e-5 leaves a defect of about 1e-5 t = 0.1, far above
        # tol_proj but below tol_proj * ||P||_2^2 ~ 1
        t = 1e4
        P = np.array([[[1, t], [0, 0]], [[1, t], [0, 1e-5]]], dtype=complex)
        defects = audit_projections(P, [1, 1])
        assert defects[0] == 0 and 1e-8 < defects[1] <= 1e-8 * t ** 2

    @pytest.mark.parametrize("P, enclosed, why", [
        (np.diag([1.0, 1e-7]), 1, "projection not idempotent"),
        (np.diag([1.0, 0.0]), 2, "projection rank 1.000000+0.000000j disagrees with enclosed count 2"),
    ])
    def test_first_failure_raises(self, P, enclosed, why):
        stack = np.array([np.eye(2), P], dtype=complex)
        with pytest.raises(NumericalError, match=why.replace("+", r"\+")):
            audit_projections(stack, [2, enclosed])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
def test_psd_sqrt_random(d, seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = Z @ Z.conj().T
    R = sd.psd_sqrt(M)
    assert np.linalg.norm(R @ R - M) <= 1e-10 * max(1.0, np.linalg.norm(M))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
def test_spectrum_residuals_random(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    norm = max(np.linalg.norm(A, 2), 1e-300)
    eigs = sd.spectrum(A)
    assert len(eigs) == d
    for ev in eigs:
        resid = np.linalg.svd(A - ev * np.eye(d), compute_uv=False)[-1]
        assert resid <= 1e-10 * norm
