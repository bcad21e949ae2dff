import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symdisk as sd
from symdisk import numrange
from symdisk.errors import InputError, NumericalError
from symdisk.numrange import _support_values, numerical_radii, pu_witness_search
from symdisk.sweeps import haar_unitary, random_projection


class TestSupportFunction:
    """The support function of W(F), the largest eigenvalue of Re(e^{-i theta} F)."""

    def test_identity(self):
        thetas = np.array([0.0, 0.7, 2.0])
        assert np.all(np.abs(_support_values(np.eye(2), thetas) - np.cos(thetas)) < 1e-12)

    def test_zero(self):
        assert _support_values(np.zeros((3, 3)), [1.0]).tolist() == [0.0]

    def test_stack_rows_equal_one_matrix_calls(self, rng):
        # shape (m, 1, d, d): row k holds F_k at every angle, bit for bit
        thetas = 2 * np.pi * np.arange(33) / 33
        for d in (1, 2, 5):
            F = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
            rows = _support_values(F[:, None], thetas)
            assert rows.shape == (4, 33)
            for Fk, row in zip(F, rows):
                assert np.array_equal(row, _support_values(Fk, thetas))

    def test_constant_for_nilpotent(self):
        F = np.array([[0, 2], [0, 0]], dtype=complex)
        assert np.all(np.abs(_support_values(F, np.linspace(0, 2 * np.pi, 7)) - 1.0) < 1e-12)


class TestNumericalRadius:
    def test_jordan_halves_radius(self, jordan_halves):
        # direct calculation: the support function peaks at 1 for theta = 0
        assert abs(sd.numerical_radius(jordan_halves) - 1.0) <= 1e-10

    def test_identity(self):
        assert abs(sd.numerical_radius(np.eye(2)) - 1.0) <= 1e-12

    def test_nilpotent(self):
        assert abs(sd.numerical_radius([[0, 2], [0, 0]]) - 1.0) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0, max_value=1, exclude_max=True))
    def test_scaling(self, d, seed, r, t):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        alpha = r * np.exp(2j * np.pi * t)
        assert abs(sd.numerical_radius(alpha * F) - abs(alpha) * sd.numerical_radius(F)) \
            <= 1e-9 * max(1.0, np.linalg.norm(F))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
    def test_dominates_spectral_radius(self, d, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = max(abs(ev) for ev in sd.spectrum(F))
        assert sd.numerical_radius(F) >= rho - 1e-10


def _peak_between_scan_angles(k: float, n_theta: int) -> np.ndarray:
    """Normal, so nu = 1.00002; the second peak sits at angle 2*pi*k/n_theta,
    halfway between two scan angles for half-integer k, below the first peak
    at every scanned angle."""
    return np.diag([1.0, (1 + 2e-5) * np.exp(1j * k * 2 * np.pi / n_theta)])


class TestCertifiedNumericalRadius:
    PEAK_BETWEEN_SCAN_ANGLES = _peak_between_scan_angles(100.5, 257)
    SCAN_257 = sd.with_overrides(sd.DEFAULT, n_theta=257)
    PEAK_BETWEEN_33_SCAN_ANGLES = _peak_between_scan_angles(12.5, 33)
    SCAN_33 = sd.with_overrides(sd.DEFAULT, n_theta=33)

    def test_peak_between_scan_angles(self):
        nu = sd.numerical_radius(self.PEAK_BETWEEN_SCAN_ANGLES, self.SCAN_257)
        assert abs(nu - (1 + 2e-5)) <= sd.DEFAULT.tol_nu

    def test_peak_between_scan_angles_not_a_contraction(self):
        with pytest.raises(InputError):
            sd.is_cnu(self.PEAK_BETWEEN_SCAN_ANGLES, self.SCAN_257)

    def test_peak_between_33_scan_angles(self):
        F = self.PEAK_BETWEEN_33_SCAN_ANGLES
        thetas = 2 * np.pi * np.arange(33) / 33
        assert _support_values(F, thetas).max() < 1 + 1e-5  # the scan misses it
        nu = sd.numerical_radius(F, self.SCAN_33)
        assert abs(nu - (1 + 2e-5)) <= sd.DEFAULT.tol_nu

    def test_peak_between_33_scan_angles_not_a_contraction(self):
        with pytest.raises(InputError):
            sd.is_cnu(self.PEAK_BETWEEN_33_SCAN_ANGLES, self.SCAN_33)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_shift(self, d):
        # W(shift) is the disk of radius cos(pi/(d+1)): a flat support function
        S = np.diag(np.ones(d - 1), 1)
        assert abs(sd.numerical_radius(S) - np.cos(np.pi / (d + 1))) <= sd.DEFAULT.tol_nu

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.01, max_value=100.0))
    def test_enclosure(self, d, seed, scale):
        rng = np.random.default_rng(seed)
        F = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        nu = sd.numerical_radius(F)
        norm2 = np.linalg.norm(F, 2)
        rho = np.abs(np.linalg.eigvals(F)).max()
        slack = 1e-12 * norm2 + sd.DEFAULT.tol_nu
        assert rho - slack <= nu <= norm2 + slack
        assert nu >= norm2 / 2 - slack

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2 ** 31))
    def test_normal_equals_spectral_radius(self, d, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.0, 2.0, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        U = haar_unitary(rng, d)
        F = U @ np.diag(lam) @ U.conj().T
        assert abs(sd.numerical_radius(F) - np.abs(lam).max()) <= sd.DEFAULT.tol_nu


def _mixed_orders() -> list:
    """Matrices of orders 0, 1, 2, 5 and 16, the missed peak and the shifts."""
    rng = np.random.default_rng(11)
    Fs = [np.zeros((0, 0), dtype=complex)]
    for d in (1, 2, 5, 16, 2, 5, 1):
        Fs.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    Fs.append(_peak_between_scan_angles(100.5, 257))
    Fs += [np.diag(np.ones(d - 1), 1) for d in (1, 2, 5, 16)]
    return Fs


class TestNumericalRadii:
    """The stacked certificate: one entry per matrix, independent of the batch."""

    @pytest.mark.parametrize("n_theta", [33, 257])
    def test_entries_equal_one_matrix_calls(self, n_theta):
        cfg = sd.with_overrides(sd.DEFAULT, n_theta=n_theta)
        Fs = _mixed_orders()
        batched = numerical_radii(Fs, cfg)
        assert batched.tolist() == [numerical_radii([F], cfg)[0] for F in Fs]
        assert batched.tolist() == [sd.numerical_radius(F, cfg) for F in Fs]

    def test_certified_values(self):
        Fs = _mixed_orders()
        nu = numerical_radii(Fs)
        assert nu[0] == 0.0
        assert abs(nu[8] - (1 + 2e-5)) <= sd.DEFAULT.tol_nu
        for d, value in zip((1, 2, 5, 16), nu[9:]):
            assert abs(value - np.cos(np.pi / (d + 1))) <= sd.DEFAULT.tol_nu

    def test_empty_list(self):
        assert numerical_radii([]).shape == (0,)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            numerical_radii([np.eye(2), np.ones((2, 3))])

    def test_failed_solve_names_its_matrix(self, monkeypatch):
        # the stacked solve fails for the whole stack; the error carries the
        # level of the matrix whose own solve fails, here the second one
        Fs = [np.diag([0.5, 0.25]), np.diag([0.9, 0.1])]
        solve, failing = np.linalg.solve, []

        def singular_second(M, B):
            if not failing:
                failing.append(M[1].copy())
            if any(np.array_equal(Mk, failing[0]) for Mk in M.reshape(-1, *M.shape[-2:])):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(M, B)

        monkeypatch.setattr(np.linalg, "solve", singular_second)
        with pytest.raises(NumericalError, match="level-set pencil solve failed at r = ") as exc:
            numerical_radii(Fs)
        thetas = 2 * np.pi * np.arange(sd.DEFAULT.n_theta) / sd.DEFAULT.n_theta
        level = _support_values(Fs[1], thetas).max() + sd.DEFAULT.tol_nu / 2
        assert f"r = {level:.17g}:" in str(exc.value)


class TestIsCnu:
    def test_nilpotent_true(self):
        assert bool(sd.is_cnu([[0, 2], [0, 0]]))

    def test_identity_false_with_witness(self):
        verdict = sd.is_cnu(np.eye(2))
        assert not verdict
        assert any(abs(w - 1) < 1e-9 for w in verdict.witnesses)

    def test_witnesses_sorted(self, rng):
        betas = np.exp(2j * np.pi * np.array([0.8, 0.1, 0.45, 0.6]))
        U = haar_unitary(rng, 4)
        verdict = sd.is_cnu(U @ np.diag(betas) @ U.conj().T)
        keys = [(w.real, w.imag) for w in verdict.witnesses]
        assert len(keys) == 4 and keys == sorted(keys)

    def test_jordan_halves_true(self, jordan_halves):
        assert bool(sd.is_cnu(jordan_halves))

    def test_rejects_non_contraction(self):
        with pytest.raises(InputError):
            sd.is_cnu(2 * np.eye(2))


class TestCnuDecompose:
    def test_mixed_diag(self):
        dec = sd.cnu_decompose(np.diag([1.0, 0.5]).astype(complex))
        assert [(round(abs(b), 9), m) for b, m in dec.unitary_eigenvalues] == [(1.0, 1)]
        assert np.allclose(dec.cnu_block, [[0.5]])
        assert np.allclose(dec.cnu_eigenvalues, [0.5])

    def test_unitary_all_peeled(self, rng):
        U = haar_unitary(rng, 4)
        dec = sd.cnu_decompose(U)
        assert dec.cnu_block.shape == (0, 0)
        assert dec.cnu_eigenvalues.shape == (0,)
        assert sum(m for _, m in dec.unitary_eigenvalues) == 4

    def test_scalar_unitary_block_peels(self):
        # W (beta I_2) W* makes the joint-eigenspace pencil pure roundoff
        W = haar_unitary(np.random.default_rng(1), 2)
        beta = np.exp(0.7j)
        dec = sd.cnu_decompose(W @ (beta * np.eye(2)) @ W.conj().T)
        assert dec.cnu_block.shape == (0, 0)
        assert len(dec.unitary_eigenvalues) == 1
        got, m = dec.unitary_eigenvalues[0]
        assert m == 2 and abs(got - beta) <= 1e-12

    def test_cnu_untouched(self):
        F = np.array([[0, 2], [0, 0]], dtype=complex)
        dec = sd.cnu_decompose(F)
        assert dec.unitary_eigenvalues == ()
        assert np.allclose(dec.cnu_block, F)

    def test_one_pass_split(self, rng, monkeypatch):
        # W (beta1 + beta2 I_2 + G) W*: two unimodular clusters cost one spectrum
        # of F and one of the c.n.u. block, not one spectrum per cluster
        import symdisk.numrange as numrange
        calls = []

        def counted(A):
            calls.append(np.shape(A))
            return sd.spectrum(A)

        monkeypatch.setattr(numrange, "spectrum", counted)
        betas = np.exp(1j * np.array([2.0, -0.4]))
        G = np.array([[0.2, 0.9], [0.0, -0.3j]])
        blocks = np.zeros((5, 5), dtype=complex)
        blocks[0, 0] = betas[0]
        blocks[1:3, 1:3] = betas[1] * np.eye(2)
        blocks[3:, 3:] = G / sd.numerical_radius(G) * 0.9
        W = haar_unitary(rng, 5)
        F = W @ blocks @ W.conj().T
        dec = sd.cnu_decompose(F)
        assert len(calls) <= 2
        # descending (real, imag): beta2 = e^{-0.4i} before beta1 = e^{2i}
        keys = [(b.real, b.imag) for b, _ in dec.unitary_eigenvalues]
        assert keys == sorted(keys, reverse=True)
        assert [m for _, m in dec.unitary_eigenvalues] == [2, 1]
        assert np.allclose([b for b, _ in dec.unitary_eigenvalues], betas[::-1], atol=1e-12)
        D = np.diag([betas[1], betas[1], betas[0], 0, 0])
        D[3:, 3:] = dec.cnu_block
        assert np.linalg.norm(dec.transform @ D @ dec.transform.conj().T - F) <= 1e-9
        assert np.allclose(np.sort(dec.cnu_eigenvalues), np.sort(np.linalg.eigvals(blocks[3:, 3:])))

    @pytest.mark.parametrize("offsets", [[0.0, 5e-9], [0.0, 1e-10, 2e-10]])
    def test_close_unimodular_eigenvalues_all_split(self, rng, offsets):
        # one cluster at tol_cluster, but the joint eigenspace at its first
        # eigenvalue misses the eigenvector of the last (5e-9 away), or holds
        # that of the middle one and misses the last (1e-10 steps), so the
        # rest take eigenbases of their own, without the vectors found before
        k = len(offsets)
        blocks = np.zeros((k + 2, k + 2), dtype=complex)
        blocks[:k, :k] = np.diag(np.exp(1j * (0.3 + np.array(offsets))))
        blocks[k:, k:] = [[0.3, 0.5], [0.0, -0.2]]
        W = haar_unitary(rng, k + 2)
        dec = sd.cnu_decompose(W @ blocks @ W.conj().T)
        assert sum(m for _, m in dec.unitary_eigenvalues) == k
        assert dec.cnu_block.shape == (2, 2)
        assert np.all(np.abs(dec.cnu_eigenvalues) < 0.5)

    def test_reassembly_random_mixture(self, rng):
        for _ in range(10):
            d_u = int(rng.integers(0, 3))
            d_c = int(rng.integers(1, 4))
            betas = np.exp(2j * np.pi * rng.uniform(size=d_u))
            Z = rng.normal(size=(d_c, d_c)) + 1j * rng.normal(size=(d_c, d_c))
            nu = sd.numerical_radius(Z)
            blocks = np.zeros((d_u + d_c, d_u + d_c), dtype=complex)
            blocks[:d_u, :d_u] = np.diag(betas)
            blocks[d_u:, d_u:] = 0.9 * Z / max(nu, 1e-12)
            W = haar_unitary(rng, d_u + d_c)
            F = W @ blocks @ W.conj().T
            dec = sd.cnu_decompose(F)
            assert sum(m for _, m in dec.unitary_eigenvalues) == d_u
            blockdiag = np.zeros_like(F)
            at = 0
            for beta, m in dec.unitary_eigenvalues:
                blockdiag[at:at + m, at:at + m] = beta * np.eye(m)
                at += m
            blockdiag[at:, at:] = dec.cnu_block
            resid = np.linalg.norm(dec.transform @ blockdiag @ dec.transform.conj().T - F)
            assert resid <= 1e-9


class TestPuCompress:
    def test_full_projection(self, rng):
        U = haar_unitary(rng, 3)
        assert np.allclose(sd.pu_compress(np.eye(3), U), U)

    def test_zero_projection(self, rng):
        U = haar_unitary(rng, 3)
        assert np.allclose(sd.pu_compress(np.zeros((3, 3)), U), U.conj().T)

    def test_derived_two_by_two(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(sd.pu_compress(P, U), [[0, 2], [0, 0]])

    def test_rejects_bad_projection(self, rng):
        with pytest.raises(InputError):
            sd.pu_compress(0.5 * np.eye(2), haar_unitary(rng, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
    def test_always_numerical_contraction(self, d, seed):
        rng = np.random.default_rng(seed)
        T = sd.pu_compress(random_projection(rng, d), haar_unitary(rng, d))
        assert sd.numerical_radius(T) <= 1.0 + 1e-10


class TestVerifyPuReducing:
    def test_empty_basis_is_no_witness(self):
        assert not sd.verify_pu_reducing(np.eye(2), np.eye(2), [])

    def test_full_space_witness(self):
        H = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
        assert sd.verify_pu_reducing(np.eye(2), np.eye(2), H)

    def test_cnu_case_has_no_witness(self):
        # pu_compress here is [[0,2],[0,0]], c.n.u., so nothing verifies
        P = np.diag([1.0, 0.0]).astype(complex)
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        for v in (np.array([1, 0]), np.array([0, 1]),
                  np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)):
            assert not sd.verify_pu_reducing(P, U, [v.astype(complex)])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InputError):
            sd.verify_pu_reducing(np.eye(2), np.eye(2),
                                  [np.array([2, 0], dtype=complex)])


class TestWitnessEquivalence:
    def test_matches_cnu_verdict(self, rng):
        # random and planted cases, d <= 4
        for trial in range(30):
            d = int(rng.integers(2, 5))
            if trial % 2 == 0:
                U = haar_unitary(rng, d)
                P = random_projection(rng, d)
            else:
                r1 = int(rng.integers(0, d))
                r2 = int(rng.integers(0 if r1 else 1, d - r1 + 1))
                r3 = d - r1 - r2
                blocks = np.zeros((d, d), dtype=complex)
                if r1:
                    blocks[:r1, :r1] = haar_unitary(rng, r1)
                if r2:
                    blocks[r1:r1 + r2, r1:r1 + r2] = haar_unitary(rng, r2)
                if r3:
                    blocks[r1 + r2:, r1 + r2:] = haar_unitary(rng, r3)
                W = haar_unitary(rng, d)
                U = W @ blocks @ W.conj().T
                Pblk = np.zeros((d, d), dtype=complex)
                Pblk[:r1, :r1] = np.eye(r1)
                if r3:
                    Pblk[r1 + r2:, r1 + r2:] = random_projection(rng, r3)
                P = W @ Pblk @ W.conj().T
            T = sd.pu_compress(P, U)
            verdict = bool(sd.is_cnu(T))
            witness = pu_witness_search(P, U)
            assert verdict == (witness is None)
            if witness is not None:
                assert sd.verify_pu_reducing(P, U, witness)

    def test_a_whole_cluster_in_one_closure(self, monkeypatch):
        # U1 = I4 with P1 a rank-2 projection off the coordinate axes: the
        # witness is the whole 4-dimensional eigenspace of PU + U*(I-P) at 1,
        # which one closure finds and verify_pu_reducing audits once
        rng = np.random.default_rng(5)
        V1, V2, V = haar_unitary(rng, 4), haar_unitary(rng, 3), haar_unitary(rng, 7)
        P = np.zeros((7, 7), dtype=complex)
        U = np.zeros((7, 7), dtype=complex)
        P[:4, :4] = V1[:, :2] @ V1[:, :2].conj().T
        P[4:, 4:] = V2[:, :1] @ V2[:, :1].conj().T
        U[:4, :4] = np.eye(4)
        U[4:, 4:] = haar_unitary(rng, 3)
        P, U = V @ P @ V.conj().T, V @ U @ V.conj().T
        calls = []
        audit = numrange.verify_pu_reducing

        def counted(*args):
            calls.append(1)
            return audit(*args)

        monkeypatch.setattr(numrange, "verify_pu_reducing", counted)
        witness = pu_witness_search(P, U)
        assert len(witness) == 4 and len(calls) == 1
        assert np.linalg.norm(np.column_stack(witness).conj().T @ V[:, 4:]) < 1e-10
