import numpy as np
import pytest

import symdisk as sd
from symdisk import realization
from symdisk.errors import InputError, NumericalError
from symdisk.gamma import phi_operator
from symdisk.realization import _transfer
from symdisk.sweeps import haar_unitary

from conftest import random_g_points


@pytest.fixture
def mobius_model():
    """tau = [1], blocks (A,B,C,D) = (0,1,1,0): Psi = (2p - s)/(2 - s)."""
    one = np.array([[1.0]], dtype=complex)
    zero = np.array([[0.0]], dtype=complex)
    return sd.RealizationModel(one, zero, one, one, zero)


@pytest.fixture
def overflow_model():
    """tau = [1], A = [1e200 (1 + i)], B = C = D = 0: A* A overflows to nan."""
    one = np.array([[1.0]], dtype=complex)
    return sd.RealizationModel(one, (1e200 + 1e200j) * one, 0 * one, 0 * one, 0 * one)


def _psi(m, x):
    """Psi(x) of a model that is not validated: _transfer on a one-element stack."""
    return _transfer(m, [x.s], [x.p], sd.DEFAULT)[1][0]


def _pencil(m, s, p):
    """T = 2I + s(D - tau) - 2p D tau at the points (s_k, p_k), written out
    with the constants on a stack axis."""
    s = np.asarray(s, dtype=complex)[:, None, None]
    p = np.asarray(p, dtype=complex)[:, None, None]
    return 2.0 * np.eye(len(m.tau))[None] + s * (m.D - m.tau)[None] - 2.0 * p * (m.D @ m.tau)[None]


def _pencil_solution(m, T, s, p):
    """X = T^{-1} C and Psi = A + (2p B tau - s B) X, written out."""
    s = np.asarray(s, dtype=complex)[:, None, None]
    p = np.asarray(p, dtype=complex)[:, None, None]
    X = np.linalg.solve(T, np.broadcast_to(m.C, (len(T),) + m.C.shape))
    return X, m.A[None] + (2.0 * p * (m.B @ m.tau)[None] - s * m.B[None]) @ X


def random_model(rng, d=None, h=None):
    d = d or int(rng.integers(1, 3))
    h = h or int(rng.integers(1, 4))
    tau = haar_unitary(rng, h)
    U = haar_unitary(rng, d + h)
    return sd.RealizationModel(tau, U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:])


class TestEvalModel:
    def test_mobius_value_at_interior_point(self, mobius_model):
        val = sd.eval_model(mobius_model, [1], [0.25])[0]
        assert abs(val[0, 0] + 0.5) < 1e-14

    def test_origin(self, mobius_model):
        assert abs(sd.eval_model(mobius_model, [0], [0])[0, 0, 0]) < 1e-15

    def test_nan_unitarity_defect_rejected(self, overflow_model):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError, match="block matrix is not unitary"):
                overflow_model.validate()

    def test_non_unitary_rejected(self):
        one = np.array([[1.0]], dtype=complex)
        m = sd.RealizationModel(one, one, one, one, one)
        with pytest.raises(InputError):
            sd.eval_model(m, [0], [0])

    def test_contractive_on_domain(self, rng):
        for _ in range(10):
            m = random_model(rng)
            pts = random_g_points(rng, 5)
            for psi in sd.eval_model(m, [x.s for x in pts], [x.p for x in pts]):
                assert np.linalg.norm(psi, 2) <= 1.0 + 1e-9


class TestInnerDefect:
    def test_interior_value(self, mobius_model):
        (direct,), (other,) = sd.inner_defect(mobius_model, [0], [0.5])
        assert abs(direct[0, 0] - 0.75) < 1e-14
        assert abs(other[0, 0] - 0.75) < 1e-14

    def test_boundary_vanishes(self, mobius_model):
        (direct,), (other,) = sd.inner_defect(mobius_model, [0], [1])
        assert abs(direct[0, 0]) < 1e-12 and abs(other[0, 0]) < 1e-12

    def test_nan_mismatch_raises(self, overflow_model):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="mismatch nan"):
                sd.inner_defect(overflow_model, [0], [0.5])

    def test_perturbed_model_flags_mismatch(self, rng):
        m = random_model(rng, d=1, h=2)
        bad = sd.RealizationModel(m.tau, m.A, m.B, m.C, m.D + 0.05)
        with pytest.raises(NumericalError):
            sd.inner_defect(bad, [0.3], [0.05])

    def test_agreement_random_models(self, rng):
        for _ in range(15):
            m = random_model(rng)
            pts = random_g_points(rng, 4)
            for direct, other in zip(*sd.inner_defect(m, [x.s for x in pts],
                                                       [x.p for x in pts])):
                assert np.linalg.norm(direct - other) <= 1e-9


class TestInnerDefectStack:
    @staticmethod
    def _per_point(m, x):
        """Both defect forms at one point, with the formulas written out."""
        h = m.tau.shape[0]
        s, p = complex(x.s), complex(x.p)
        phi = np.linalg.solve((2.0 * np.eye(h) - s * m.tau).T,
                              (2.0 * p * m.tau - s * np.eye(h)).T).T
        X, psi = _pencil_solution(m, _pencil(m, [s], [p]), [s], [p])
        inv = ((2.0 * np.eye(h)[None] - np.array([s])[:, None, None] * m.tau[None]) @ X)[0]
        direct = np.eye(m.A.shape[0]) - psi[0].conj().T @ psi[0]
        return direct, inv.conj().T @ (np.eye(h) - phi.conj().T @ phi) @ inv

    def test_stack_equals_per_point(self, rng):
        for _ in range(20):
            m = random_model(rng, d=int(rng.integers(1, 5)), h=int(rng.integers(1, 5)))
            pts = random_g_points(rng, 20)
            direct, other = sd.inner_defect(m, [x.s for x in pts], [x.p for x in pts])
            for k, x in enumerate(pts):
                ref = self._per_point(m, x)
                assert np.array_equal(direct[k], ref[0])
                assert np.array_equal(other[k], ref[1])
                (one,), (one_other,) = sd.inner_defect(m, [x.s], [x.p])
                assert np.array_equal(one, ref[0]) and np.array_equal(one_other, ref[1])

    def test_stack_reports_first_mismatch(self, rng):
        # phi = 0 at the origin, where a perturbed D leaves the two forms equal
        m = random_model(rng, d=1, h=2)
        bad = sd.RealizationModel(m.tau, m.A, m.B, m.C, m.D + 0.05)
        pts = [sd.GammaPoint(0, 0)] + random_g_points(rng, 6)
        sd.inner_defect(bad, [pts[0].s], [pts[0].p])
        with pytest.raises(NumericalError) as first:
            sd.inner_defect(bad, [pts[1].s], [pts[1].p])
        with pytest.raises(NumericalError) as stacked:
            sd.inner_defect(bad, [x.s for x in pts], [x.p for x in pts])
        assert str(stacked.value) == str(first.value)


def _transfer_svd_at_every_point(m, s, p, cfg=sd.DEFAULT):
    """_transfer with the singular checks of 2I - s tau and of T run as an SVD at every point."""
    h = m.tau.shape[0]
    pencil = 2.0 * np.eye(h) - np.asarray(s, dtype=complex)[:, None, None] * m.tau
    sv = np.linalg.svd(pencil, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-13 * np.maximum(sv[:, 0], 1.0)):
        raise InputError("singular pencil 2*I - s*tau")
    T = _pencil(m, s, p)
    sv = np.linalg.svd(T, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-12 * np.maximum(sv[:, 0], 1.0)):
        raise NumericalError("I - D phi is singular at the requested point")
    return _pencil_solution(m, T, s, p)


def _transfer_outcome(f, m, s, p):
    """The (X, Psi) stacks f returns, or the type of the exception it raises."""
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            return f(m, s, p, sd.DEFAULT)
        except (NumericalError, InputError, np.linalg.LinAlgError) as exc:
            return type(exc)


def _assert_same_transfer(new, old):
    if isinstance(old, type):
        assert new is old
    else:
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(new, old))


class TestTransferCheck:
    """_transfer decides the singular pencil T = 2I + s(D - tau) - 2p D tau by
    an inverse bound, then an SVD; it must raise exactly when an SVD at every
    point raises, and return the same bits otherwise."""

    # sigma_min(T) relative to max(sigma_max, 1): around the 1e-12
    # rule, around the 1e-6 screen margin, and far from both
    PLACEMENTS = tuple(1e-12 + d for d in (-1e-13, -3e-14, -1e-14, 1e-14, 3e-14, 1e-13,
                                           1e-12, 1e-11, 1e-10)) + \
        (1e-7, 5e-7, 9e-7, 1.1e-6, 2e-6, 1e-5, 1e-2, 0.5)

    @staticmethod
    def _row(n=8):
        # one off-diagonal torus row: the pencil screen decides every point
        z1 = np.exp(2j * np.pi * 0.3)
        z2 = np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
        return list(z1 + z2), list(z1 * z2)

    @staticmethod
    def _placed_model(rng, tau, s, p, rel, smax):
        """A model whose T at (s, p) has the singular values smax, ...,
        rel * max(smax, 1), or only rel * max(smax, 1) when h = 1."""
        h = tau.shape[0]
        smin = rel * max(smax, 1.0)
        sig = np.sort(np.concatenate([[smax], rng.uniform(smin, smax, h - 2), [smin]])
                      )[::-1] if h > 1 else np.array([smin])
        U, V = haar_unitary(rng, h), haar_unitary(rng, h)
        T0 = U @ np.diag(sig) @ V.conj().T
        # T = P - D N with P = 2I - s tau and N = 2p tau - sI, invertible off the torus diagonal
        D = (2.0 * np.eye(h) - s * tau - T0) @ np.linalg.inv(2.0 * p * tau - s * np.eye(h))
        C = rng.standard_normal((h, 2)) + 1j * rng.standard_normal((h, 2))
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, h)) + 1j * rng.standard_normal((2, h))
        return sd.RealizationModel(tau, A, B, C, D)

    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_svd_at_every_point(self, h, seed):
        rng = np.random.default_rng(2000 * seed + h)
        tau = haar_unitary(rng, h)
        s, p = self._row()
        raised = passed = 0
        for rel in self.PLACEMENTS:
            for smax in (0.5, 1.0, 3.0):
                k = int(rng.integers(len(s)))
                m = self._placed_model(rng, tau, s[k], p[k], rel, smax)
                new = _transfer_outcome(_transfer, m, s[k:k + 1], p[k:k + 1])
                _assert_same_transfer(new, _transfer_outcome(
                    _transfer_svd_at_every_point, m, s[k:k + 1], p[k:k + 1]))
                raised += new is NumericalError
                passed += not isinstance(new, type)
                # the whole row raises when the placed point does, else gives the same bits
                _assert_same_transfer(_transfer_outcome(_transfer, m, s, p),
                                      _transfer_outcome(_transfer_svd_at_every_point, m, s, p))
        assert raised > 0 and passed > 0

    @staticmethod
    def _svd_calls(monkeypatch, m, s, p):
        """The outcome of _transfer and how many SVDs it ran."""
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        try:
            return _transfer_outcome(_transfer, m, s, p), len(calls)
        finally:
            monkeypatch.setattr(np.linalg, "svd", svd)

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_benign_row_runs_no_svd(self, monkeypatch, rng, h):
        s, p = self._row()
        new, calls = self._svd_calls(monkeypatch, random_model(rng, d=2, h=h), s, p)
        assert not isinstance(new, type) and calls == 0

    # a nan or infinite entry of I - D phi; at 1e200 the entries stay finite
    # and only the Frobenius norms overflow
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 0.0), 1e200 * (1 + 1j)])
    @pytest.mark.parametrize("h", [1, 2])
    def test_non_finite_entry_reaches_the_svd(self, monkeypatch, rng, bad, h):
        m = random_model(rng, d=2, h=h)
        D = m.D.copy()
        D[0, -1] = bad
        # the constructor rejects a non-finite block, so D is planted after it
        object.__setattr__(m, "D", D)
        s, p = self._row()
        for ss, pp in ((s[:1], p[:1]), (s, p)):
            new, calls = self._svd_calls(monkeypatch, m, ss, pp)
            assert calls > 0
            _assert_same_transfer(new, _transfer_outcome(_transfer_svd_at_every_point, m, ss, pp))

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_exactly_singular_member_reaches_the_svd(self, monkeypatch, rng, h):
        # tau = I at (s, p) = (0, 1) gives T = 2(I - D) = diag(0, 1.4, ...) exactly
        tau = np.eye(h, dtype=complex)
        D = np.diag([1.0] + [0.3] * (h - 1)).astype(complex)
        m = sd.RealizationModel(tau, np.zeros((1, 1)), np.zeros((1, h)),
                                np.ones((h, 1)), D)
        s, p = self._row()
        for ss, pp in (([0.0], [1.0]), (s[:3] + [0.0] + s[3:], p[:3] + [1.0] + p[3:])):
            new, calls = self._svd_calls(monkeypatch, m, ss, pp)
            assert new is NumericalError and calls > 0
            assert _transfer_outcome(_transfer_svd_at_every_point, m, ss, pp) is NumericalError


class TestBoundaryAudit:
    def test_mobius_inner(self, mobius_model):
        assert sd.boundary_unitarity_audit(mobius_model, 32) <= 1e-10

    def test_random_models_inner(self, rng):
        for _ in range(5):
            defect = sd.boundary_unitarity_audit(random_model(rng), 16)
            assert defect <= 1e-9

    def test_nan_defect_fails_audit(self, overflow_model):
        # |A|^2 overflows, so I - Psi* Psi is nan everywhere on the torus
        with np.errstate(over="ignore", invalid="ignore"):
            defect = sd.boundary_unitarity_audit(overflow_model, 8)
        assert not defect <= sd.DEFAULT.tol_inner

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_grid_rejected(self, mobius_model, n):
        # an empty grid has no defect to report, so it may not pass
        with pytest.raises(InputError, match="n_per_axis >= 1"):
            sd.boundary_unitarity_audit(mobius_model, n)

    def test_non_unitary_block_fails_audit(self):
        one = np.array([[1.0]], dtype=complex)
        m = sd.RealizationModel(one, 0.5 * one, one, one, 0 * one)
        assert sd.boundary_unitarity_audit(m, 8) > 1e-9

    @staticmethod
    def _per_point_maximum(m, n):
        """Max defect over the n x n grid, one point at a time, through _transfer
        and through the formula written out; also counts the points whose
        Frobenius norm stays below the maximum of the earlier rows."""
        d, h = m.A.shape[0], m.tau.shape[0]
        worst = worst_ref = 0.0
        skipped = 0
        for a in range(n):
            earlier = worst
            for b in range(n):
                x = sd.symmetrize(np.exp(1j * (2 * np.pi * (a + 0.5) / n)),
                                  np.exp(1j * (2 * np.pi * (b + 0.5) / n)))
                ref = _pencil_solution(m, _pencil(m, [x.s], [x.p]), [x.s], [x.p])[1][0]
                psi = _psi(m, x)
                assert np.array_equal(psi, ref)
                defect = np.eye(d) - psi.conj().T @ psi
                worst = max(worst, float(np.linalg.norm(defect, 2)))
                worst_ref = max(worst_ref,
                                float(np.linalg.norm(np.eye(d) - ref.conj().T @ ref, 2)))
                skipped += np.linalg.norm(defect) * (1 + 1e-9) < earlier
        return worst, worst_ref, skipped

    @pytest.mark.parametrize("d,h", [(1, 1), (2, 3), (3, 1), (1, 4), (3, 3)])
    def test_equals_per_point_maximum(self, rng, d, h):
        # the half-grid, block-stacked, Frobenius-screened audit reproduces a
        # per-point loop over the full grid bit for bit, for odd and tiny n
        # too; a unitary block plus 1e-6 noise is not inner, so the maximum
        # mostly moves after the first row and the screen skips points
        for noise, n in ((0.0, 1), (1e-6, 1), (0.0, 2), (1e-6, 2), (0.0, 7), (1e-6, 7),
                         (0.0, 12), (1e-6, 12), (0.0, 32), (1e-6, 32)):
            m = random_model(rng, d=d, h=h)
            if noise:
                m = sd.RealizationModel(m.tau, *(M + noise * (rng.standard_normal(M.shape)
                                                              + 1j * rng.standard_normal(M.shape))
                                                 for M in (m.A, m.B, m.C, m.D)))
            worst, worst_ref, skipped = self._per_point_maximum(m, n)
            if noise:
                assert worst > 1e-7 and (skipped > n or n < 7)
            assert sd.boundary_unitarity_audit(m, n) == worst == worst_ref

    @pytest.mark.parametrize("d,h", [(1, 1), (2, 3), (1, 8), (8, 8)])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_evaluates_each_boundary_point_once(self, monkeypatch, rng, d, h, n):
        # the triangle z2 >= z1 of the grid, n(n + 1)/2 distinct points, in
        # stacks of about _AUDIT_BLOCK_ENTRIES entries
        seen, calls = [], []

        def counting(m, s, p, cfg):
            calls.append(len(s))
            seen.extend(zip(s, p))
            return _transfer(m, s, p, cfg)

        monkeypatch.setattr(realization, "_transfer", counting)
        sd.boundary_unitarity_audit(random_model(rng, d=d, h=h), n)
        torus = [complex(np.exp(1j * (2 * np.pi * (k + 0.5) / n))) for k in range(n)]
        assert len(seen) == n * (n + 1) // 2
        assert set(seen) == {(z1 + z2, z1 * z2) for z1 in torus for z2 in torus}
        block = max(1, realization._AUDIT_BLOCK_ENTRIES // (d + h) ** 2)
        assert len(calls) <= -(-len(seen) // block) + n

    def test_one_solve_per_stack_and_no_phi_operator(self, monkeypatch, rng):
        # the pencil T replaces the phi solve: one stacked solve per _transfer call
        counts = {"solve": 0, "transfer": 0}
        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)

        def counting_transfer(m, s, p, cfg):
            counts["transfer"] += 1
            return _transfer(m, s, p, cfg)

        def no_phi(*args, **kwargs):
            raise AssertionError("the audit called phi_operator")

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(realization, "_transfer", counting_transfer)
        monkeypatch.setattr(realization, "phi_operator", no_phi)
        monkeypatch.setattr(sd.gamma, "phi_operator", no_phi)
        for d, h, n in ((1, 1, 64), (2, 3, 16), (8, 8, 64)):
            assert sd.boundary_unitarity_audit(random_model(rng, d=d, h=h), n) <= 1e-10
        assert counts["solve"] == counts["transfer"] > 3

    @pytest.mark.parametrize("d,h", [(1, 2), (1, 4), (2, 5), (3, 8)])
    def test_psi_matches_the_phi_route(self, d, h):
        # h > d leaves h - d singular values of D at 1, so ||D||_2 = 1.  The
        # midpoint grid holds the torus diagonal z1 = z2, where |s| = 2 and
        # the pencil P = 2I - s tau is as ill conditioned as z is close to an
        # eigenvalue of conj(tau); both routes then carry a rounding error of
        # a few eps * cond(P), so the 1e-12 agreement is asserted where
        # cond(P) <= 1e3 and a few eps * cond(P) above that
        rng = np.random.default_rng(100 * d + h)
        n = 16
        torus = np.exp(1j * (2 * np.pi * (np.arange(n) + 0.5) / n))
        z1, z2 = np.meshgrid(torus, torus)
        inside = random_g_points(rng, 20)
        s = np.concatenate([(z1 + z2).ravel(), [x.s for x in inside]])
        p = np.concatenate([(z1 * z2).ravel(), [x.p for x in inside]])
        diagonal = np.arange(n) * (n + 1)
        for _ in range(5):
            m = random_model(rng, d=d, h=h)
            assert abs(np.linalg.norm(m.D, 2) - 1.0) <= 1e-12
            phi = phi_operator(m.tau, s, p)
            ref = m.A + m.B @ phi @ np.linalg.solve(
                np.eye(h) - m.D @ phi, np.broadcast_to(m.C, (len(s), h, d)))
            cond = np.linalg.cond(2.0 * np.eye(h) - s[:, None, None] * m.tau)
            assert (cond[diagonal] <= 1e3).any()
            gap = np.abs(sd.eval_model(m, s, p) - ref).max(axis=(1, 2))
            assert (gap <= np.maximum(1e-12, 1e-15 * cond)).all()

    def test_takes_tau_norm_once(self, monkeypatch, rng):
        # one ||tau||_2 per model, not one per torus row
        norm = np.linalg.norm
        calls = []

        def counting(x, ord=None, *args, **kwargs):
            calls.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        m = random_model(rng, d=2, h=3)
        sd.boundary_unitarity_audit(m, 64)
        sd.boundary_unitarity_audit(m, 16)
        assert calls.count(2) == 1

    def _corner(self, n):
        # the first grid point (z, z) of an n x n audit, z = exp(i pi / n)
        z = np.exp(1j * (2 * np.pi * 0.5 / n))
        return z, sd.symmetrize(z, z)

    def test_singular_tau_pencil_raises_like_eval_model(self):
        # tau = conj(z) makes 2 - s tau = 2 - 2|z|^2 vanish at the grid point (z, z)
        z, x = self._corner(8)
        one = np.array([[1.0]], dtype=complex)
        m = sd.RealizationModel(np.conj(z) * one, 0 * one, one, one, 0 * one)
        with pytest.raises(InputError, match="singular pencil") as single:
            _psi(m, x)
        with pytest.raises(InputError, match="singular pencil") as stacked:
            sd.boundary_unitarity_audit(m, 8)
        assert type(single.value) is type(stacked.value)

    def test_singular_transfer_raises_like_eval_model(self):
        # D = 1 / phi(x) makes I - D phi vanish at the grid point x = (z, z)
        z, x = self._corner(8)
        one = np.array([[1.0]], dtype=complex)
        phi = sd.phi_operator(one, [x.s], [x.p])[0, 0, 0]
        m = sd.RealizationModel(one, 0 * one, one, one, one / phi)
        with pytest.raises(NumericalError, match="I - D phi is singular") as single:
            _psi(m, x)
        with pytest.raises(NumericalError, match="I - D phi is singular") as stacked:
            sd.boundary_unitarity_audit(m, 8)
        assert type(single.value) is type(stacked.value)


class TestAuditFailureOrder:
    """On a grid whose points all fit one stack, the first triangle row with
    a non-finite defect or a singular point decides the outcome, as in a
    row-by-row pass over the full grid."""

    N = 8

    def _point(self, a, b):
        z1, z2 = (complex(np.exp(1j * (2 * np.pi * (k + 0.5) / self.N))) for k in (a, b))
        return sd.GammaPoint(z1 + z2, z1 * z2)

    @staticmethod
    def _placed(t, x, target):
        """The d with 2 + s(d - t) - 2p d t = target at x = (s, p): the diagonal
        entry of T for tau_ii = t and D_ii = d."""
        return (target - 2.0 + x.s * t) / (x.s - 2.0 * x.p * t)

    def _model(self, overflow_at, singular_at, kind):
        """tau = diag(1, t), D = diag(D1, D2): T is 1e-10 (2 - s) from singular at
        overflow_at, so ||I - Psi* Psi||_F overflows there only, and the pencil
        2I - s tau (kind "pencil", singular_at on the diagonal) or T (kind
        "transfer") is singular at singular_at."""
        x0, x1 = self._point(*overflow_at), self._point(*singular_at)
        t = np.conj(x1.s / 2) if kind == "pencil" else 1.0
        tau = np.diag([1.0, t]).astype(complex)
        d1 = self._placed(1.0, x0, 1e-10 * (2.0 - x0.s))
        d2 = 0.0 if kind == "pencil" else self._placed(t, x1, 0.0)
        m = sd.RealizationModel(tau, np.zeros((1, 1)), np.ones((1, 2)),
                                np.array([[1e70], [1.0]]), np.diag([d1, d2]))
        assert realization._AUDIT_BLOCK_ENTRIES // 3 ** 2 >= self.N * (self.N + 1) // 2
        return m, x0, x1

    @pytest.mark.parametrize("kind,singular_at", [("transfer", (2, 4)), ("pencil", (2, 2))])
    def test_non_finite_row_before_singular_row_fails_as_nan(self, kind, singular_at):
        m, x0, x1 = self._model((0, 3), singular_at, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _psi(m, x0)
            assert not np.isfinite(np.linalg.norm(np.eye(1) - psi.conj().T @ psi))
            with pytest.raises((InputError, NumericalError)):
                _psi(m, x1)
            assert np.isnan(sd.boundary_unitarity_audit(m, self.N))

    @pytest.mark.parametrize("kind,singular_at", [("transfer", (0, 3)), ("pencil", (0, 0))])
    def test_singular_row_before_non_finite_row_raises_like_eval_model(self, kind,
                                                                      singular_at):
        m, x0, x1 = self._model((2, 4), singular_at, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((InputError, NumericalError)) as single:
                _psi(m, x1)
            with pytest.raises((InputError, NumericalError)) as stacked:
                sd.boundary_unitarity_audit(m, self.N)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)
