import numpy as np
import pytest

import symdisk as sd
from symdisk import kernels, realization
from symdisk.errors import InputError, NumericalError
from symdisk.gamma import phi_operators
from symdisk.pick import gram_on_nodes
from symdisk.realization import _transfer, lurking_isometry_interpolant
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


def random_model(rng, d=None, h=None):
    d = d or int(rng.integers(1, 3))
    h = h or int(rng.integers(1, 4))
    tau = haar_unitary(rng, h)
    U = haar_unitary(rng, d + h)
    return sd.RealizationModel(tau, U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:])


class TestEvalModel:
    def test_mobius_value_at_interior_point(self, mobius_model):
        val = sd.eval_model(mobius_model, sd.GammaPoint(1, 0.25))
        assert abs(val[0, 0] + 0.5) < 1e-14

    def test_origin(self, mobius_model):
        assert abs(sd.eval_model(mobius_model, sd.GammaPoint(0, 0))[0, 0]) < 1e-15

    def test_nan_unitarity_defect_rejected(self, overflow_model):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError, match="block matrix is not unitary"):
                overflow_model.validate()

    def test_non_unitary_rejected(self):
        one = np.array([[1.0]], dtype=complex)
        m = sd.RealizationModel(one, one, one, one, one)
        with pytest.raises(InputError):
            sd.eval_model(m, sd.GammaPoint(0, 0))

    def test_contractive_on_domain(self, rng):
        for _ in range(10):
            m = random_model(rng)
            for x in random_g_points(rng, 5):
                psi = sd.eval_model(m, x)
                assert np.linalg.norm(psi, 2) <= 1.0 + 1e-9


class TestInnerDefect:
    def test_interior_value(self, mobius_model):
        direct, other = sd.inner_defect(mobius_model, sd.GammaPoint(0, 0.5))
        assert abs(direct[0, 0] - 0.75) < 1e-14
        assert abs(other[0, 0] - 0.75) < 1e-14

    def test_boundary_vanishes(self, mobius_model):
        direct, other = sd.inner_defect(mobius_model, sd.GammaPoint(0, 1))
        assert abs(direct[0, 0]) < 1e-12 and abs(other[0, 0]) < 1e-12

    def test_nan_mismatch_raises(self, overflow_model):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="mismatch nan"):
                sd.inner_defect(overflow_model, sd.GammaPoint(0, 0.5))

    def test_perturbed_model_flags_mismatch(self, rng):
        m = random_model(rng, d=1, h=2)
        bad = sd.RealizationModel(m.tau, m.A, m.B, m.C, m.D + 0.05)
        with pytest.raises(NumericalError):
            sd.inner_defect(bad, sd.GammaPoint(0.3, 0.05))

    def test_agreement_random_models(self, rng):
        for _ in range(15):
            m = random_model(rng)
            for x in random_g_points(rng, 4):
                direct, other = sd.inner_defect(m, x)
                assert np.linalg.norm(direct - other) <= 1e-9


class TestInnerDefectStack:
    @staticmethod
    def _per_point(m, x):
        """Both defect forms at one point, with the formula written out."""
        h = m.tau.shape[0]
        s, p = complex(x.s), complex(x.p)
        phi = np.linalg.solve((2.0 * np.eye(h) - s * m.tau).T,
                              (2.0 * p * m.tau - s * np.eye(h)).T).T
        inv = np.linalg.solve(np.eye(h) - m.D @ phi, m.C)
        psi = m.A + m.B @ phi @ inv
        direct = np.eye(m.A.shape[0]) - psi.conj().T @ psi
        return direct, inv.conj().T @ (np.eye(h) - phi.conj().T @ phi) @ inv

    def test_stack_equals_per_point(self, rng):
        for _ in range(20):
            m = random_model(rng, d=int(rng.integers(1, 5)), h=int(rng.integers(1, 5)))
            pts = random_g_points(rng, 20)
            direct, other = sd.inner_defects(m, [x.s for x in pts], [x.p for x in pts])
            for k, x in enumerate(pts):
                ref = self._per_point(m, x)
                assert np.array_equal(direct[k], ref[0])
                assert np.array_equal(other[k], ref[1])
                single = sd.inner_defect(m, x)
                assert np.array_equal(single[0], ref[0]) and np.array_equal(single[1], ref[1])

    def test_stack_reports_first_mismatch(self, rng):
        # phi = 0 at the origin, where a perturbed D leaves the two forms equal
        m = random_model(rng, d=1, h=2)
        bad = sd.RealizationModel(m.tau, m.A, m.B, m.C, m.D + 0.05)
        pts = [sd.GammaPoint(0, 0)] + random_g_points(rng, 6)
        sd.inner_defect(bad, pts[0])
        with pytest.raises(NumericalError) as first:
            sd.inner_defect(bad, pts[1])
        with pytest.raises(NumericalError) as stacked:
            sd.inner_defects(bad, [x.s for x in pts], [x.p for x in pts])
        assert str(stacked.value) == str(first.value)


def _transfer_svd_at_every_point(m, s, p, cfg=sd.DEFAULT):
    """_transfer with the singular check of I - D phi run as an SVD at every point."""
    phi = phi_operators(m.tau, s, p, cfg)
    M = np.eye(m.tau.shape[0]) - m.D @ phi
    sv = np.linalg.svd(M, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-12 * np.maximum(sv[:, 0], 1.0)):
        raise NumericalError("I - D phi is singular at the requested point")
    inv = np.linalg.solve(M, np.broadcast_to(m.C, (len(M),) + m.C.shape))
    return phi, inv, m.A + m.B @ phi @ inv


def _transfer_outcome(f, m, s, p):
    """The (phi, inv, Psi) stacks f returns, or the type of the exception it raises."""
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
    """_transfer decides the singular I - D phi by an inverse bound, then an SVD;
    it must raise exactly when an SVD at every point raises, and return the
    same bits otherwise."""

    # sigma_min(I - D phi) relative to max(sigma_max, 1): around the 1e-12
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
        """A model whose I - D phi at (s, p) has the singular values smax, ...,
        rel * max(smax, 1), or only rel * max(smax, 1) when h = 1."""
        h = tau.shape[0]
        phi = phi_operators(tau, [s], [p])[0]
        smin = rel * max(smax, 1.0)
        sig = np.sort(np.concatenate([[smax], rng.uniform(smin, smax, h - 2), [smin]])
                      )[::-1] if h > 1 else np.array([smin])
        U, V = haar_unitary(rng, h), haar_unitary(rng, h)
        M0 = U @ np.diag(sig) @ V.conj().T
        D = (np.eye(h) - M0) @ np.linalg.inv(phi)
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
        # tau = I at (s, p) = (0, 1) gives phi = I exactly, so I - D phi = diag(0, 0.7, ...)
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
        """Max defect over the n x n grid, one point at a time, through eval_model
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
                s, p = complex(x.s), complex(x.p)
                phi = np.linalg.solve((2.0 * np.eye(h) - s * m.tau).T,
                                      (2.0 * p * m.tau - s * np.eye(h)).T).T
                ref = m.A + m.B @ phi @ np.linalg.solve(np.eye(h) - m.D @ phi, m.C)
                psi = sd.eval_model(m, x, validate=False)
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
            sd.eval_model(m, x, validate=False)
        with pytest.raises(InputError, match="singular pencil") as stacked:
            sd.boundary_unitarity_audit(m, 8)
        assert type(single.value) is type(stacked.value)

    def test_singular_transfer_raises_like_eval_model(self):
        # D = 1 / phi(x) makes I - D phi vanish at the grid point x = (z, z)
        z, x = self._corner(8)
        one = np.array([[1.0]], dtype=complex)
        phi = sd.phi_operator(one, x)[0, 0]
        m = sd.RealizationModel(one, 0 * one, one, one, one / phi)
        with pytest.raises(NumericalError, match="I - D phi is singular") as single:
            sd.eval_model(m, x, validate=False)
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

    def _model(self, overflow_at, singular_at, kind):
        """tau = diag(1, t), D = diag(D1, D2): I - D phi is 1e-10 from singular at
        overflow_at, so ||I - Psi* Psi||_F overflows there only, and the pencil
        (kind "pencil", singular_at on the diagonal) or I - D phi (kind
        "transfer") is singular at singular_at."""
        x0, x1 = self._point(*overflow_at), self._point(*singular_at)
        t = np.conj(x1.s / 2) if kind == "pencil" else 1.0
        tau = np.diag([1.0, t]).astype(complex)
        d1 = (1 - 1e-10) / sd.phi_operator(tau, x0)[0, 0]
        d2 = 0.0 if kind == "pencil" else 1 / sd.phi_operator(tau, x1)[1, 1]
        m = sd.RealizationModel(tau, np.zeros((1, 1)), np.ones((1, 2)),
                                np.array([[1e70], [1.0]]), np.diag([d1, d2]))
        assert realization._AUDIT_BLOCK_ENTRIES // 3 ** 2 >= self.N * (self.N + 1) // 2
        return m, x0, x1

    @pytest.mark.parametrize("kind,singular_at", [("transfer", (2, 4)), ("pencil", (2, 2))])
    def test_non_finite_row_before_singular_row_fails_as_nan(self, kind, singular_at):
        m, x0, x1 = self._model((0, 3), singular_at, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = sd.eval_model(m, x0, validate=False)
            assert not np.isfinite(np.linalg.norm(np.eye(1) - psi.conj().T @ psi))
            with pytest.raises((InputError, NumericalError)):
                sd.eval_model(m, x1, validate=False)
            assert np.isnan(sd.boundary_unitarity_audit(m, self.N))

    @pytest.mark.parametrize("kind,singular_at", [("transfer", (0, 3)), ("pencil", (0, 0))])
    def test_singular_row_before_non_finite_row_raises_like_eval_model(self, kind,
                                                                      singular_at):
        m, x0, x1 = self._model((2, 4), singular_at, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((InputError, NumericalError)) as single:
                sd.eval_model(m, x1, validate=False)
            with pytest.raises((InputError, NumericalError)) as stacked:
                sd.boundary_unitarity_audit(m, self.N)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)


class TestLurkingIsometry:
    def test_single_node(self):
        data = sd.PickData((sd.GammaPoint(0, 0),), (0,))
        model = lurking_isometry_interpolant(
            np.array([[1.0]]), [np.array([1.0])], data)
        assert abs(sd.eval_model(model, sd.GammaPoint(0, 0))[0, 0]) <= 1e-10

    def test_sheet_pipeline_fixture(self, data_sheet, kernel_sheet):
        # scalar tau certified by the extension's u-vector norms
        ext = sd.build_extension(kernel_sheet)
        fvals = [np.array([np.linalg.norm(u)]) for u in ext.u_nodes]
        model = lurking_isometry_interpolant(np.array([[1.0]]), fvals, data_sheet)
        got0 = sd.eval_model(model, sd.GammaPoint(0, 0))[0, 0]
        got1 = sd.eval_model(model, sd.GammaPoint(0, 0.5))[0, 0]
        assert abs(got0 - 0) <= 1e-8 and abs(got1 - 0.5) <= 1e-8
        # the model is inner: boundary defect at tolerance
        assert sd.boundary_unitarity_audit(model, 16) <= 1e-9

    def test_royal_fixture(self, data_royal, kernel_royal):
        ext = sd.build_extension(kernel_royal)
        fvals = [np.array([np.linalg.norm(u)]) for u in ext.u_nodes]
        model = lurking_isometry_interpolant(np.array([[1.0]]), fvals, data_royal)
        for nd, w in zip(data_royal.nodes, data_royal.targets):
            assert abs(sd.eval_model(model, nd)[0, 0] - w) <= 1e-8

    def test_perturbed_targets_rejected(self, data_sheet, kernel_sheet):
        ext = sd.build_extension(kernel_sheet)
        fvals = [np.array([np.linalg.norm(u)]) for u in ext.u_nodes]
        bad = sd.PickData(data_sheet.nodes, (0, 0.55))
        with pytest.raises(InputError):
            lurking_isometry_interpolant(np.array([[1.0]]), fvals, bad)

    def test_matrix_targets(self, rng):
        # build a random model, sample it at nodes, reconstruct from its own data
        m = random_model(rng, d=2, h=2)
        nodes = random_g_points(rng, 2)
        phis = [sd.phi_operator(m.tau, x) for x in nodes]
        targets = [sd.eval_model(m, x) for x in nodes]
        inv = [np.linalg.solve(np.eye(2) - m.D @ ph, m.C) for ph in phis]
        model = lurking_isometry_interpolant(m.tau, inv, nodes, targets)
        for x, M in zip(nodes, targets):
            assert np.linalg.norm(sd.eval_model(model, x) - M) <= 1e-8

    def test_node_reproduction_contract(self, rng):
        # random certified data always reproduces its nodes
        for _ in range(5):
            m = random_model(rng, d=1, h=2)
            nodes = random_g_points(rng, 3)
            phis = [sd.phi_operator(m.tau, x) for x in nodes]
            targets = [sd.eval_model(m, x) for x in nodes]
            fvals = [np.linalg.solve(np.eye(2) - m.D @ ph, m.C) for ph in phis]
            model = lurking_isometry_interpolant(m.tau, fvals, nodes, targets)
            for x, M in zip(nodes, targets):
                assert np.linalg.norm(sd.eval_model(model, x) - M) <= 1e-8
