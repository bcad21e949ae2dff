import numpy as np
import pytest

import symdisk as sd
from symdisk import kernels
from symdisk.errors import InputError, NumericalError
from symdisk.pick import gram_on_nodes
from symdisk.realization import lurking_isometry_interpolant
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
        # the row-stacked, Frobenius-screened audit reproduces a per-point loop
        # bit for bit; a unitary block plus 1e-6 noise is not inner, so the
        # maximum mostly moves after the first row and the screen skips points
        for noise, n in ((0.0, 12), (1e-6, 12), (0.0, 32), (1e-6, 32)):
            m = random_model(rng, d=d, h=h)
            if noise:
                m = sd.RealizationModel(m.tau, *(M + noise * (rng.standard_normal(M.shape)
                                                              + 1j * rng.standard_normal(M.shape))
                                                 for M in (m.A, m.B, m.C, m.D)))
            worst, worst_ref, skipped = self._per_point_maximum(m, n)
            if noise:
                assert worst > 1e-7 and skipped > n
            assert sd.boundary_unitarity_audit(m, n) == worst == worst_ref

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
