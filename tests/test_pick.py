import dataclasses

import numpy as np
import pytest

import symdisk as sd
from symdisk import kernels
from symdisk.errors import InputError
from symdisk.pick import _audit_model, _fundamental_model, gram_on_nodes, kernel_basis_operators

from conftest import disk_beta, random_g_points

# eight sheet nodes, two of them 0.02 apart: the Gram matrix has condition
# number about 2e7, and I - Mp Mp* formed as a difference is indefinite
CLOSE_SHEET_P = (-0.4 + 0.6j, -0.1 + 0.05j, 0.72 - 0.16j, -0.56 - 0.23j,
                 -0.05 + 0.82j, 0.01 + 0.22j, 0.59 - 0.5j, 0.03 + 0.22j)


@pytest.fixture
def kernel_close_sheet():
    data = sd.PickData(np.zeros(len(CLOSE_SHEET_P)), CLOSE_SHEET_P, CLOSE_SHEET_P)
    return gram_on_nodes(data, kernels.model(np.zeros((2, 2))))


class TestPickData:
    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            sd.PickData(0, 0, (0, 0.5))

    def test_rejects_coincident_nodes(self):
        with pytest.raises(InputError):
            sd.PickData((0, 0), (0, 0), (0, 0.5))

    def test_rejects_node_outside_domain(self):
        with pytest.raises(InputError):
            sd.PickData(2, 1, 0)

    def test_rejects_large_target(self):
        with pytest.raises(InputError):
            sd.PickData(0, 0, 1.5)

    def test_rejects_nan_target(self):
        with pytest.raises(InputError, match=r"^target 1 has modulus nan > 1$"):
            sd.PickData((0, 0), (0, 0.5), (0, complex(np.nan, 0)))

    def test_holds_flat_complex_arrays(self):
        data = sd.PickData([[0, 1]], [[0, 0.25]], [[0, 0.5]])
        for a in (data.s, data.p, data.targets):
            assert a.dtype == complex and a.shape == (2,)
        with pytest.raises(InputError, match="^s and p must have the same shape$"):
            sd.PickData([[0, 1]], [0, 0.25], [0, 0.5])

    def test_honours_cfg(self):
        # s = 1 - 5e-10 lies in the default boundary band but not in a 1e-12 one
        with pytest.raises(InputError, match="not in the open domain"):
            sd.PickData(0.9999999995, 0, 0)
        cfg = sd.with_overrides(sd.DEFAULT, tol_mod=1e-12)
        assert sd.PickData(0.9999999995, 0, 0, cfg).cfg is cfg
        # two nodes 1e-8 apart coincide at a tol_node of 1e-7
        sd.PickData((0, 1e-8), (0, 0), (0, 0))
        with pytest.raises(InputError, match="coincide"):
            sd.PickData((0, 1e-8), (0, 0), (0, 0), sd.with_overrides(sd.DEFAULT, tol_node=1e-7))

    def test_first_error_reported(self):
        # coincidence is checked before the domain, each in node order
        with pytest.raises(InputError, match=r"^nodes 1 and 3 coincide$"):
            sd.PickData((2, 0.1, 0, 0.1, 0.1), (1, 0.02, 0, 0.02, 0.02), (0,) * 5)
        with pytest.raises(InputError, match=r"^node 1 = \(\(3\+0j\), \(2\+0j\)\) is not in"):
            sd.PickData((0.1, 3, 2), (0.02, 2, 1), (0,) * 3)


def test_table_kernel_looks_up_nodes():
    G = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    k = kernels.table((0, 0.5), (0, 0.06), G)
    assert k([0.5 + 4e-10, 0], [0.06, 0])[0, 1] == -0.5j
    # the error names the first point that matches no node
    with pytest.raises(InputError, match=r"^point \(\(0\.500000002\+0j\), \(0\.06\+0j\)\) is not "
                                         r"in the kernel table$"):
        k([0, 0.5 + 2e-9, 0.5 + 3e-9], [0, 0.06, 0.06])


def test_model_gram_takes_one_stacked_kernel_vector_call(monkeypatch, royal_F):
    stacked = kernels.unit_kernel_vector
    sizes = []

    def counting(V, s, p, *args, **kwargs):
        sizes.append(np.size(s))
        return stacked(V, s, p, *args, **kwargs)

    monkeypatch.setattr(kernels, "unit_kernel_vector", counting)
    s = np.array([0, 1, 1j])
    G = kernels.model(royal_F)(s, s * s / 4)
    assert sizes == [3]
    assert G.shape == (3, 3) and np.allclose(G, G.conj().T, atol=1e-15)


class TestPickMatrix:
    def test_sheet_datum_all_ones(self, data_sheet, kernel_sheet):
        # model kernel of {s=0} on the 4.10 nodes: all-ones Pick matrix
        P = sd.pick_matrix(data_sheet, kernel_sheet)
        assert np.allclose(P, np.ones((2, 2)), atol=1e-12)

    def test_royal_example(self, data_royal, kernel_royal):
        P = sd.pick_matrix(data_royal, kernel_royal)
        target = np.array([[1, 2 / np.sqrt(5)], [2 / np.sqrt(5), 0.8]])
        assert np.allclose(P, target, atol=1e-12)

    def test_single_node_szego(self):
        data = sd.PickData(0, 0, 0)
        P = sd.pick_matrix(data, gram_on_nodes(data, sd.szego_kernel))
        assert np.allclose(P, [[1]])

    def test_hermitian_and_reorder_invariant(self, rng):
        pts = random_g_points(rng, 4)
        w = 0.9 * rng.uniform(size=4) * np.exp(2j * np.pi * rng.uniform(size=4))
        data = sd.PickData(*zip(*pts), w)
        P = sd.pick_matrix(data, gram_on_nodes(data, sd.szego_kernel))
        assert np.linalg.norm(P - P.conj().T) <= 1e-12 * np.linalg.norm(P)
        perm = rng.permutation(4)
        data2 = sd.PickData(data.s[perm], data.p[perm], w[perm])
        P2 = sd.pick_matrix(data2, gram_on_nodes(data2, sd.szego_kernel))
        assert np.allclose(P2, P[np.ix_(perm, perm)], atol=1e-12)


class TestPsdReport:
    def test_rank_one(self):
        rep = sd.psd_report(np.ones((2, 2)))
        assert abs(rep.min_eigenvalue) <= 1e-12
        g = rep.null_vector
        assert g is not None
        assert abs(abs(g[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(g[0] + g[1]) < 1e-12  # proportional to (1, -1)

    def test_strictly_positive(self):
        rep = sd.psd_report(np.array([[1, 1], [1, 4 / 3]]))
        assert rep.min_eigenvalue > 0.1
        assert rep.null_vector is None

    def test_indefinite(self):
        rep = sd.psd_report(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert rep.min_eigenvalue < -0.5

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            sd.psd_report(np.array([[0, 1], [0, 0]]))

    def test_large_entry_does_not_make_active(self):
        # Szego Pick matrix with eigenvalues 0.76 and 1e9: well conditioned
        # once scaled by the kernel diagonal, so not active
        cfg = sd.with_overrides(sd.DEFAULT, tol_mod=1e-12)
        data = sd.PickData((0.9999999995, 0.1), (0, 0), (0, 0.5), cfg)
        K = gram_on_nodes(data, sd.szego_kernel, cfg)
        rep = sd.psd_report(sd.pick_matrix(data, K), cfg, kernel_diag=K.gram.diagonal())
        assert abs(rep.min_eigenvalue - 0.7575757563) < 1e-8
        assert rep.null_vector is None

    def test_tiny_pick_matrix_is_active(self):
        # (1 - |w|^2) G with |w| a few ulps below 1: active at any kernel scale
        G = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert sd.psd_report(1e-15 * G, kernel_diag=G.diagonal()).null_vector is not None
        assert sd.psd_report(1e-15 * G).null_vector is not None
        assert sd.psd_report(np.array([[1e-15]])).null_vector is not None

    def test_null_vector_is_the_scaled_one(self):
        # k = (1e-12, 1): P / sqrt(k_i k_j) = diag(0.5, 1e-11) is singular
        # along e_2, although P's own smallest eigenvector is e_1
        rep = sd.psd_report(np.diag([0.5e-12, 1e-11]), kernel_diag=[1e-12, 1.0])
        assert rep.null_vector is not None
        assert abs(abs(rep.null_vector[1]) - 1) < 1e-12
        assert sd.psd_report(np.diag([1e-12, 1.0]), kernel_diag=[1e-12, 1.0]).null_vector is None

    def test_singular_core_active_at_any_kernel_scale(self):
        k = np.array([1e10, 1.0, 1e-6])
        v = np.array([1.0, 2.0, -1.0])
        P = np.sqrt(np.outer(k, k)) * np.outer(v, v)
        rep = sd.psd_report(P, kernel_diag=k)
        assert rep.null_vector is not None
        assert np.linalg.norm(P @ rep.null_vector) <= 1e-12 * np.linalg.norm(P)
        # a multiple of the identity is never active, however large
        assert sd.psd_report(1e9 * np.eye(3)).null_vector is None

    def test_zero_diagonal_is_active(self):
        rep = sd.psd_report(np.diag([0.0, 1.0]))
        assert rep.null_vector is not None
        assert abs(abs(rep.null_vector[0]) - 1) < 1e-12

    def test_null_vector_is_canonical_on_a_null_space_of_dimension_four(self):
        # the all-ones Pick matrix of five sheet nodes: LAPACK's null vector of
        # a four-dimensional null space moves by O(1) under 1e-16 perturbations
        q = np.array([0.1, 0.3j, -0.4 + 0.2j, 0.5, -0.2 - 0.6j])
        data = sd.PickData(np.zeros(5), q, np.exp(0.3j) * q)
        K = gram_on_nodes(data, kernels.model(np.zeros((2, 2))))
        P = sd.pick_matrix(data, K)
        gamma = sd.psd_report(P, kernel_diag=K.gram.diagonal()).null_vector
        assert np.linalg.norm(P @ gamma) <= 1e-12
        assert gamma[-1].real > 0 and abs(gamma[-1].imag) <= 1e-15
        rng = np.random.default_rng(15)
        for _ in range(50):
            Z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            g = sd.psd_report(P + 1e-16 * (Z + Z.conj().T) / 2,
                              kernel_diag=K.gram.diagonal()).null_vector
            assert np.abs(g - gamma).max() <= 1e-13

    def test_pivot_is_the_first_entry_of_half_the_largest_modulus(self):
        # gamma is (1, 3) / sqrt(10) up to sign: entry 0 is below half the
        # largest modulus, so entry 1 is made positive
        g = sd.psd_report(np.array([[9.0, -3.0], [-3.0, 1.0]])).null_vector
        assert g[1] > 0 and abs(g[0] - g[1] / 3) < 1e-15
        assert sd.psd_report(np.ones((2, 2))).null_vector[0] > 0


class TestKernelBasisOperators:
    def test_single_node(self):
        K = sd.KernelMatrix(0, 0, np.array([[1.0]]))
        ops = kernel_basis_operators(K)
        assert np.allclose(ops.Ms, 0) and np.allclose(ops.Mp, 0)
        assert np.allclose(ops.D, [[1.0]])

    def test_sheet_model_contractive(self, kernel_sheet):
        ops = kernel_basis_operators(kernel_sheet)
        assert np.linalg.norm(ops.Mp, 2) <= 1.0 + 1e-10

    def test_kernel_matrix_honours_cfg(self):
        # a Hermitian defect of 1e-11 passes tol_herm = 1e-10 but not the default
        G = np.array([[1.0, 1e-11], [0.0, 1.0]])
        with pytest.raises(InputError, match="not Hermitian"):
            sd.KernelMatrix((0, 0), (0, 0.5), G)
        cfg = sd.with_overrides(sd.DEFAULT, tol_herm=1e-10)
        assert sd.KernelMatrix((0, 0), (0, 0.5), G, cfg).cfg is cfg

    def test_gram_on_nodes_passes_cfg(self, data_sheet):
        cfg = sd.with_overrides(sd.DEFAULT, tol_psd=1e-6)
        assert gram_on_nodes(data_sheet, sd.szego_kernel, cfg).cfg is cfg

    def test_rank_collapse_rejected(self):
        K = sd.KernelMatrix((0, 0), (0, 0.9), np.ones((2, 2)))
        with pytest.raises(InputError):
            kernel_basis_operators(K)

    def test_close_nodes_give_psd_defect_operator(self, kernel_close_sheet):
        ops = kernel_basis_operators(kernel_close_sheet)
        assert np.all(ops.sigma >= 0) and np.all(np.diff(ops.sigma) <= 0)
        assert np.allclose(ops.D, (ops.U * ops.sigma) @ ops.U.conj().T, atol=1e-14)
        # D^2 is the Gram of D on the kernel functions: [(1 - p_i conj(p_j)) G_ij]
        C = ops.coords
        p = np.array(CLOSE_SHEET_P)
        Q = (1 - np.outer(p, p.conj())) * kernel_close_sheet.gram
        assert np.linalg.norm(C.conj().T @ ops.D @ ops.D @ C - Q) <= 1e-10 * np.linalg.norm(Q)

    def test_indefinite_defect_rejected(self):
        # a Gram with ||Mp|| > 1: (1 - p_i conj(p_j)) G_ij is indefinite
        K = sd.KernelMatrix((0, 0), (0, 0.5), np.array([[1.0, 0.99], [0.99, 1.0]]))
        with pytest.raises(InputError, match="indefinite"):
            kernel_basis_operators(K)


class TestFundamentalOperator:
    def test_single_node_is_conj_beta(self, rng):
        for _ in range(5):
            x = random_g_points(rng, 1)[0]
            K = sd.KernelMatrix(x.s, x.p, np.array([[1.0 + rng.uniform()]]))
            F = _fundamental_model(K, sd.DEFAULT).F
            assert abs(F[0, 0] - np.conj(disk_beta(x))) < 1e-10

    def test_sheet_model_zero(self, kernel_sheet):
        F = _fundamental_model(kernel_sheet, sd.DEFAULT).F
        assert F.shape == (2, 2)
        assert np.linalg.norm(F) <= 1e-12

    def test_royal_model_vanishes_on_royal_points(self, kernel_royal):
        F = _fundamental_model(kernel_royal, sd.DEFAULT).F
        V = sd.PencilVariety(F)
        for z in (0.3, -0.2 + 0.4j, 0.6j):
            assert sd.membership_residual(V, 2 * z, z * z)[0] <= 1e-8

    def test_model_restrictions_are_numerical_contractions(self, rng):
        # restrict a model kernel to variety nodes inside the domain; the
        # fundamental operator must come back a numerical contraction
        from symdisk.gamma import REGIONS, Region
        from symdisk.sweeps import ginibre_contraction
        for _ in range(5):
            F0 = ginibre_contraction(rng, 3)
            if not sd.is_cnu(F0):
                continue
            V0 = sd.PencilVariety(F0)
            nodes = []
            for p in (0.2, -0.3j, 0.4):
                for s in sd.slice_points(V0, p)[0]:
                    x = sd.GammaPoint(s, p)
                    if REGIONS[sd.classify_region([x.s], [x.p])[0]] is Region.OPEN_G:
                        nodes.append(x)
            nodes = nodes[:4]
            if len(nodes) < 2:
                continue
            data = sd.PickData(*zip(*nodes), np.zeros(len(nodes)))
            K = gram_on_nodes(data, kernels.model(F0))
            Fp = _fundamental_model(K, sd.DEFAULT).F
            assert sd.numerical_radius(Fp) <= 1.0 + 1e-10
            assert sd.admissibility_audit(K).passed


class TestAdmissibilityAudit:
    def test_szego_restrictions_pass(self, rng):
        for _ in range(5):
            pts = random_g_points(rng, int(rng.integers(2, 5)))
            data = sd.PickData(*zip(*pts), np.zeros(len(pts)))
            K = gram_on_nodes(data, sd.szego_kernel)
            report = sd.admissibility_audit(K)
            assert report.passed, report.failures

    def test_sheet_model_passes(self, kernel_sheet):
        report = sd.admissibility_audit(kernel_sheet)
        assert report.passed
        assert report.nu_fundamental <= 1e-10

    def test_rank_collapse_errors(self):
        K = sd.KernelMatrix((0, 0), (0, 0.9), np.ones((2, 2)))
        with pytest.raises(InputError):
            sd.admissibility_audit(K)

    def test_unit_mp_norm_model_passes(self):
        # F = [[0, 1/2], [1/2, 0]] has W_F: s = +-(1 + p)/2.  On its nodes
        # ||Mp|| = 1, so D has a null direction that roundoff lifts to about
        # 1e-8; the audit must not count it against F'
        F = np.array([[0, 0.5], [0.5, 0]])
        p = np.repeat([0.3, -0.4j, 0.5 + 0.2j], 2)
        s = np.tile([1, -1], 3) * (1 + p) / 2
        K = gram_on_nodes(sd.PickData(s, p, np.zeros(6)), kernels.model(F))
        report = sd.admissibility_audit(K)
        assert report.passed, report

    def test_close_sheet_nodes_pass(self, kernel_close_sheet):
        report = sd.admissibility_audit(kernel_close_sheet)
        assert report.passed, report.failures
        assert report.isometry_defect <= 1e-8

    def test_perturbed_fundamental_operator_fails_intertwining(self, rng):
        pts = random_g_points(rng, 3)
        K = gram_on_nodes(sd.PickData(*zip(*pts), (0, 0, 0)), sd.szego_kernel)
        model = _fundamental_model(K, sd.DEFAULT)
        assert _audit_model(model, sd.DEFAULT).passed
        E = rng.standard_normal(model.F.shape) + 1j * rng.standard_normal(model.F.shape)
        bad = dataclasses.replace(model, F=model.F + 1e-6 * E / np.linalg.norm(E))
        report = _audit_model(bad, sd.DEFAULT)
        assert "intertwining_s" in report.failures
        assert report.intertwine_s > 1e-8

    def test_report_fields_are_closed_form(self):
        names = {f.name for f in dataclasses.fields(sd.AdmissibilityReport)}
        assert {"isometry_defect", "intertwine_s", "commutator"} <= names
        assert not names & {"trunc", "tail_bound", "intertwine_p"}
