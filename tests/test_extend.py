import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import symdisk as sd
from symdisk import kernels, numrange, variety
from symdisk.cli import load_matrix
from symdisk.errors import InputError
from symdisk.gamma import REGIONS, Region
from symdisk.pick import gram_on_nodes

from conftest import disk_beta, random_g_points

DATA = Path(__file__).resolve().parent.parent / "data"


def extended_kernel(model, x, y):
    """K(x, y) = <u(y), u(x)> / (1 - p conj(q)) on the model's variety."""
    return (np.vdot(sd.kernel_vector_at(model, x), sd.kernel_vector_at(model, y))
            / (1.0 - complex(x.p) * np.conj(complex(y.p))))


def node_trace(model, j, cfg=sd.DEFAULT, radius=None):
    """The branch trace of node j on its own: branch_trace on a model that holds
    node j alone, numbered j, with that node's error raised."""
    alone = sd.ExtensionModel(model.F, (model.nodes[j],), (model.u_nodes[j],), model.cfg)
    tr, = sd.branch_trace(alone, cfg, radius=radius)
    if isinstance(tr, Exception):
        raise tr
    return dataclasses.replace(tr, node_index=j)


@pytest.fixture
def model_sheet(kernel_sheet):
    return sd.build_extension(kernel_sheet)


@pytest.fixture
def model_royal(kernel_royal):
    return sd.build_extension(kernel_royal)


@pytest.fixture
def contour_calls(monkeypatch):
    """The radius of every spectral_projection call branch_trace makes."""
    import symdisk.extend as extend
    calls = []
    contour = extend.spectral_projection

    def counting(*args, **kwargs):
        calls.append(args[2])
        return contour(*args, **kwargs)

    monkeypatch.setattr(extend, "spectral_projection", counting)
    return calls


@pytest.fixture
def royal_direct(royal_F):
    """Extension data written directly in the royal pencil's own basis."""
    def u_of(z):
        return np.array([1, np.conj(z)], dtype=complex) / np.sqrt(1 + abs(z) ** 2)
    return sd.ExtensionModel(royal_F,
                             (sd.GammaPoint(0, 0), sd.GammaPoint(1, 0.25)),
                             (u_of(0), u_of(0.5)))


class TestBuildExtension:
    def test_sheet_model_gives_zero_block(self, model_sheet):
        assert model_sheet.F.shape == (2, 2)
        assert np.linalg.norm(model_sheet.F) <= 1e-12

    def test_royal_membership(self, model_royal):
        V = model_royal.variety
        assert sd.membership_residual(V, 1, 0.25)[0] <= 1e-10
        assert sd.membership_residual(V, 0, 0)[0] <= 1e-10

    def test_single_node(self, rng):
        x = random_g_points(rng, 1)[0]
        K = sd.KernelMatrix((x,), np.array([[2.0]]))
        model = sd.build_extension(K)
        beta = disk_beta(x)
        assert model.F.shape == (1, 1)
        assert abs(model.F[0, 0] - np.conj(beta)) < 1e-10
        # u = D k in orthonormal coordinates: sqrt(1 - |p|^2 |Mp|...) scale
        expected = np.sqrt(2.0) * np.sqrt(1 - abs(x.p) ** 2)
        assert abs(np.linalg.norm(model.u_nodes[0]) - expected) < 1e-10

    def test_node_pencil_residuals(self, model_royal, data_royal):
        for j, nd in enumerate(data_royal.nodes):
            pencil = model_royal.F + np.conj(nd.p) * model_royal.F.conj().T \
                - np.conj(nd.s) * np.eye(2)
            assert np.linalg.norm(pencil @ model_royal.u_nodes[j]) <= 1e-10

    def test_cnu_invariant(self, model_royal):
        assert bool(sd.is_cnu(model_royal.F))

    def test_variety_built_once(self, model_royal):
        assert model_royal.variety is model_royal.variety

    def test_block_spectrum_computed_once(self, monkeypatch, capsys, tmp_path):
        # the splitting's c.n.u. spectrum is the extension variety's: across a
        # whole trace command every spectrum call has a matrix of its own
        import symdisk.linalg as linalg
        from symdisk.cli import main
        matrices = []
        spectrum = linalg.spectrum

        def recorded(A):
            a = np.asarray(A, dtype=complex)
            matrices.append((a.shape, a.tobytes()))
            return spectrum(A)

        for module in (linalg, numrange, variety):
            monkeypatch.setattr(module, "spectrum", recorded)
        assert main(["trace", "--input", str(DATA / "datum_royal.json"),
                     "--kernel", f"model:{DATA / 'royal_pencil.json'}",
                     "--grid-n", "64", "--out", str(tmp_path / "t.csv")]) == 0
        assert matrices and len(matrices) == len(set(matrices))


class TestComplexNodePipeline:
    def test_extension_reproduces_complex_gram(self, rng):
        # complex p-coordinates exercise every conjugation in the pipeline
        from symdisk.gamma import REGIONS, Region
        from symdisk.sweeps import ginibre_contraction
        built = 0
        for _ in range(8):
            F0 = ginibre_contraction(rng, 2)
            if not sd.is_cnu(F0):
                continue
            V0 = sd.PencilVariety(F0)
            nodes = []
            for p in (0.17 + 0.23j, -0.31j, 0.4 * np.exp(1.1j)):
                for s in sd.slice_points(V0, p)[0]:
                    x = sd.GammaPoint(s, p)
                    if REGIONS[sd.classify_region([x.s], [x.p])[0]] is Region.OPEN_G:
                        nodes.append(x)
            if len(nodes) < 3:
                continue
            nodes = nodes[:3]
            data = sd.PickData(tuple(nodes), tuple(0.0 for _ in nodes))
            K = gram_on_nodes(data, kernels.model(F0))
            try:
                model = sd.build_extension(K)
            except sd.InputError:
                continue  # audit may reject near-degenerate samples
            scale = np.linalg.norm(K.gram)
            for i, x in enumerate(nodes):
                for j, y in enumerate(nodes):
                    got = extended_kernel(model, x, y)
                    assert abs(got - K.gram[i, j]) <= 1e-9 * scale
                resid = sd.membership_residual(model.variety, x.s, x.p)[0]
                assert resid <= 1e-8 * max(1.0, np.linalg.norm(model.F))
            built += 1
        assert built >= 3


class TestKernelVectorAt:
    def test_royal_direct_closed_form(self, royal_direct):
        # in the pencil's own basis the kernel line at (2z, z^2) is (1, conj(z))
        u = sd.kernel_vector_at(royal_direct, sd.GammaPoint(1.2, 0.36))
        ref = np.array([1, 0.6], dtype=complex) / np.sqrt(1.36)
        assert np.linalg.norm(u - ref) <= 1e-12
        u0 = sd.kernel_vector_at(royal_direct, sd.GammaPoint(0, 0))
        assert np.allclose(u0, [1, 0], atol=1e-12)

    def test_royal_off_node_direction(self, model_royal):
        z = 0.4
        u = sd.kernel_vector_at(model_royal, sd.GammaPoint(2 * z, z * z))
        # the kernel line is unique up to phase; compare projectively
        pencil = model_royal.F + np.conj(z * z) * model_royal.F.conj().T \
            - np.conj(2 * z) * np.eye(2)
        assert np.linalg.norm(pencil @ u) <= 1e-10
        assert abs(np.linalg.norm(u) - 1) <= 1e-12

    def test_nodes_return_stored(self, model_royal):
        u = sd.kernel_vector_at(model_royal, sd.GammaPoint(0, 0))
        assert u is model_royal.u_nodes[0]

    def test_off_node_is_unit_kernel_vector(self, model_royal):
        V = model_royal.variety
        for p in (0.3, -0.2 + 0.5j, 0.7j):
            for s in sd.slice_points(V, p)[0]:
                x = sd.GammaPoint(s, p)
                u = sd.kernel_vector_at(model_royal, x)
                assert np.array_equal(u, kernels.unit_kernel_vector(V, x.s, x.p)[0][0])

    def test_off_variety_rejected(self, model_sheet):
        with pytest.raises(InputError):
            sd.kernel_vector_at(model_sheet, sd.GammaPoint(1, 0))


class TestExtendedKernel:
    def test_restriction_reproduces_gram(self, model_sheet, kernel_sheet,
                                         model_royal, kernel_royal):
        for model, K in ((model_sheet, kernel_sheet), (model_royal, kernel_royal)):
            scale = np.linalg.norm(K.gram)
            for i, x in enumerate(K.nodes):
                for j, y in enumerate(K.nodes):
                    got = extended_kernel(model, x, y)
                    assert abs(got - K.gram[i, j]) <= 1e-9 * scale

    def test_sheet_model_closed_form(self, model_sheet):
        # unit kernel vectors make this the disk Szego kernel in p
        for p, q in ((0.3, 0.1), (0.5j, -0.2), (0.7, 0.6j)):
            got = extended_kernel(model_sheet, sd.GammaPoint(0, p), sd.GammaPoint(0, q))
            assert abs(got - 1 / (1 - p * np.conj(q))) <= 1e-12

    def test_royal_closed_form(self, royal_direct):
        # K((2z,z^2),(2w,w^2)) = (1+z conj(w)) / (sqrt(1+|z|^2) sqrt(1+|w|^2) (1-z^2 conj(w)^2))
        for z, w in ((0.3, 0.2), (0.4j, -0.1), (0.2 + 0.3j, 0.5), (0.5, 0.0)):
            got = extended_kernel(royal_direct, sd.GammaPoint(2 * z, z * z),
                                  sd.GammaPoint(2 * w, w * w))
            wbar = np.conj(w)
            ref = (1 + z * wbar) / (np.sqrt(1 + abs(z) ** 2) * np.sqrt(1 + abs(w) ** 2)
                                    * (1 - z * z * wbar * wbar))
            assert abs(got - ref) <= 1e-12

    def test_diagonal_positive(self, model_royal, rng):
        for z in (0.3, 0.5j, -0.6):
            x = sd.GammaPoint(2 * z, z * z)
            val = extended_kernel(model_royal, x, x)
            assert val.real > 0 and abs(val.imag) < 1e-12


class TestBranchTrace:
    def test_sheet_model_trivial_branch(self, model_sheet):
        tr = node_trace(model_sheet, 0)
        assert tr.branch_count == 1
        assert max(tr.alpha_errors) <= 1e-12
        assert max(tr.sum_errors) <= 1e-12

    def test_royal_node0_two_branches(self, model_royal):
        n_steps = 20
        tr = node_trace(model_royal, 0, sd.with_overrides(sd.DEFAULT, n_steps=n_steps),
                        radius=1e-8 * 2 ** (n_steps - 1))
        assert tr.branch_count == 2
        assert abs(abs(tr.z_path[-1]) - 1e-8) < 1e-20
        # branches behave like +-2 sqrt(z)
        vals = sorted(tr.branch_values[-1], key=lambda z: z.real)
        root = 2 * np.sqrt(abs(tr.z_path[-1]))
        assert abs(vals[0] + root) < 1e-6 and abs(vals[1] - root) < 1e-6
        assert tr.sum_errors[-1] <= 1e-6
        assert max(tr.projection_defects) <= 1e-10

    def test_royal_node1_single_branch(self, model_royal):
        tr = node_trace(model_royal, 1)
        assert tr.branch_count == 1
        assert tr.alpha_errors[-1] <= 1e-6
        assert tr.sum_errors[-1] <= 1e-6

    def test_traced_points_in_domain(self, model_royal):
        tr = node_trace(model_royal, 1)
        for z, means in zip(tr.z_path, tr.branch_values):
            for a in means:
                x = sd.GammaPoint(np.conj(a), np.conj(z))
                assert REGIONS[sd.classify_region([x.s], [x.p])[0]] is Region.OPEN_G
        assert max(m for m in tr.membership_residuals if not np.isnan(m)) <= 1e-8

    def test_convergence_rate_sqrt(self, model_royal):
        # two-branch node: observed error O(|z|^(1/2))
        tr = node_trace(model_royal, 0)
        errs = np.array(tr.alpha_errors)
        zs = np.abs(np.array(tr.z_path))
        ratio = errs[2:] / np.sqrt(zs[2:])
        assert ratio.max() / ratio.min() < 10

    # contour projections failed here: at the origin node on roundoff in the
    # resolvents of a nearly nilpotent pencil (||P^2 - P|| = 1.0e-8), at the
    # near-branch node on quadrature error (||P^2 - P|| = 2.0e-4).  At
    # tol_proj = 1e-13 the trapezoid contour still left 1.3e-12 at the origin
    # node; the matrix sign function leaves 1.8e-14
    @pytest.mark.parametrize("zs", [(0, 0.3 + 0.2j, -0.4 + 0.1j),
                                    (0.0293 + 0.0429j, 0.2491 - 0.4527j)],
                             ids=["origin_node", "near_branch_node"])
    def test_royal_datum_near_branch_point(self, zs):
        F = load_matrix(str(DATA / "royal_pencil.json"))
        data = sd.PickData(tuple(sd.GammaPoint(2 * z, z * z) for z in zs),
                           tuple(-z for z in zs))
        model = sd.build_extension(gram_on_nodes(data, kernels.model(F)))
        for tol_proj in (1e-8, 1e-13):
            cfg = sd.with_overrides(sd.DEFAULT, tol_proj=tol_proj)
            for tr in sd.branch_trace(model, cfg):
                assert isinstance(tr, sd.SheetTrace), tr
                assert max(tr.projection_defects) <= tol_proj

    def test_contour_fallback_takes_nodes_from_the_spectrum(self, contour_calls):
        # nodes (0, 0) and (2z, z^2), z^2 = 0.6: the first path point's pencil
        # has eigenvectors of condition 1.3e8 and eigenvalues at ratio 0.7 of
        # the disk radius; a 64-node trapezoid contour left ||P^2 - P|| = 1.008e-08
        F = load_matrix(str(DATA / "royal_pencil.json"))
        z = np.sqrt(0.6)
        data = sd.PickData((sd.GammaPoint(0, 0), sd.GammaPoint(2 * z, 0.6)), (0, -z))
        model = sd.build_extension(gram_on_nodes(data, kernels.model(F)))
        tr = node_trace(model, 1, sd.with_overrides(sd.DEFAULT, n_steps=4), radius=0.6)
        assert len(contour_calls) == 1
        assert max(tr.projection_defects) <= 1e-12

    def test_ill_conditioned_eigenvectors_take_the_contour(self, contour_calls):
        # criterion 9's nilpotent model: at |z| ~ 1e-24 the eigenvectors of
        # F + z F* are nearly parallel, cond(V) ~ 1e12, so eps cond(V) > tol_proj
        data = sd.PickData((sd.GammaPoint(0, 0), sd.GammaPoint(1, 0.25)), (0, -0.5))
        F = np.array([[0, 2], [0, 0]], dtype=complex)
        model = sd.build_extension(gram_on_nodes(data, kernels.model(F)))
        tr = node_trace(model, 0, sd.with_overrides(sd.DEFAULT, n_steps=3), radius=1e-24)
        assert len(contour_calls) == 3
        assert min(tr.eigvec_conditions) * np.finfo(float).eps > sd.DEFAULT.tol_proj
        assert tr.sum_errors[-1] <= 1e-12
        assert max(tr.projection_defects) <= sd.DEFAULT.tol_proj
        contour_calls.clear()
        tr = node_trace(model, 0)
        assert contour_calls == []
        assert max(tr.eigvec_conditions) * np.finfo(float).eps <= sd.DEFAULT.tol_proj

    def test_tol_proj_sets_the_contour_fallback(self, model_royal, contour_calls):
        # eps cond(V) grows like |z|^(-1/2) along the path into the origin node;
        # a tolerance of 1e-13 sends the points above it to the contour: one
        # projection for the disk and one for each of the two branches
        by_eig = node_trace(model_royal, 0)
        assert contour_calls == []
        cfg = sd.with_overrides(sd.DEFAULT, tol_proj=1e-13)
        mixed = node_trace(model_royal, 0, cfg)
        routed = int(np.sum(np.finfo(float).eps * np.array(mixed.eigvec_conditions) > 1e-13))
        assert 0 < routed < len(mixed.z_path)
        assert len(contour_calls) == 3 * routed
        for a, b in zip(by_eig.branch_vectors, mixed.branch_vectors):
            assert np.abs(np.array(a) - np.array(b)).max() <= 1e-10

    def test_sign_fallback_matches_a_50_digit_reference(self, model_royal):
        # at tol_proj = 1e-13, 9 points of the path into the origin node take
        # spectral_projection for their disk and each of their two branches;
        # every branch vector lies within 1e-12 of the exact projection of u_0
        # onto its eigenvector (the trapezoid contour was off by 1.0e-11)
        mpmath = pytest.importorskip("mpmath")
        cfg = sd.with_overrides(sd.DEFAULT, tol_proj=1e-13)
        tr = node_trace(model_royal, 0, cfg)
        routed = np.flatnonzero(np.finfo(float).eps * np.array(tr.eigvec_conditions) > 1e-13)
        assert len(routed) == 9
        F, u = model_royal.F, model_royal.u_nodes[0]
        with mpmath.workdps(50):
            for k in routed:
                E, V = mpmath.eig(mpmath.matrix((F + tr.z_path[k] * F.conj().T).tolist()))
                Vinv = mpmath.inverse(V)
                assert len(tr.branch_values[k]) == len(E) == 2
                for mean, v in zip(tr.branch_values[k], tr.branch_vectors[k]):
                    i = min(range(2), key=lambda i: abs(E[i] - mean))
                    coef = sum(Vinv[i, m] * u[m] for m in range(2))
                    ref = np.array([complex(V[m, i] * coef) for m in range(2)])
                    assert np.abs(v - ref).max() <= 1e-12

    def test_disk_radius_shrinks_off_eigenvalues(self, royal_direct):
        # path z = 0.25 / 2^k into the origin node: the eigenvalues +-2 sqrt(z)
        # = +-1, +-0.71, +-0.5, ... land within dist_guard of the disk's circle
        # at every point, so each point shrinks the radius 1 once by 0.7
        for n_steps in (1, 3, 5):
            tr = node_trace(royal_direct, 0, sd.with_overrides(sd.DEFAULT, n_steps=n_steps),
                            radius=0.25)
            assert tr.contour_radius == 0.7 ** n_steps
            assert tr.branch_count == 0

    def test_defective_path_pencil_takes_the_contour(self, contour_calls):
        # F the 3x3 shift and a node at p = 0.6 traced with radius 0.6: the
        # path starts at z = 0, where F + z F* = F is a Jordan block whose
        # eigenvector matrix is singular
        F = np.diag([1.0, 1.0], 1).astype(complex)
        vals, vecs = np.linalg.eig(F + 0.6 * F.conj().T)
        top = np.argmax(vals.real)
        model = sd.ExtensionModel(F, (sd.GammaPoint(np.conj(vals[top]), 0.6),), (vecs[:, top],))
        tr = node_trace(model, 0, sd.with_overrides(sd.DEFAULT, n_steps=4), radius=0.6)
        assert tr.z_path[0] == 0
        assert np.isnan(tr.eigvec_conditions[0]) and np.isfinite(tr.eigvec_conditions[1:]).all()
        assert len(contour_calls) == 1
        assert tr.branch_values[0] == () and tr.sum_errors[0] == pytest.approx(1.0)
        assert max(tr.projection_defects) <= 1e-14


def _same(x, y) -> bool:
    """x == y, through tuples and arrays, with nan equal to nan."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y or (x != x and y != y)


def _same_trace(a, b):
    for f in dataclasses.fields(sd.SheetTrace):
        assert _same(getattr(a, f.name), getattr(b, f.name)), f.name


class TestBranchTraces:
    @pytest.mark.parametrize("which", ["royal", "origin_node", "sheet5"])
    def test_batch_equals_one_node_calls(self, request, which):
        if which == "royal":
            model = request.getfixturevalue("model_royal")
        elif which == "origin_node":
            zs = (0, 0.3 + 0.2j, -0.4 + 0.1j)
            F = load_matrix(str(DATA / "royal_pencil.json"))
            data = sd.PickData(tuple(sd.GammaPoint(2 * z, z * z) for z in zs),
                               tuple(-z for z in zs))
            model = sd.build_extension(gram_on_nodes(data, kernels.model(F)))
        else:
            ps = (-0.4 + 0.6j, -0.1 + 0.05j, 0.72 - 0.16j, -0.56 - 0.23j, -0.05 + 0.82j)
            data = sd.PickData(tuple(sd.GammaPoint(0, p) for p in ps), ps)
            model = sd.build_extension(gram_on_nodes(data, kernels.model(np.zeros((2, 2)))))
        traces = sd.branch_trace(model)
        assert len(traces) == len(model.nodes)
        for j, tr in enumerate(traces):
            _same_trace(tr, node_trace(model, j))

    def test_each_node_keeps_its_own_error(self):
        # the royal datum at dist_guard = 0.9: the node at the branch point
        # finds no admissible contour, the other traces as on its own
        data = sd.PickData((sd.GammaPoint(1, 0.25), sd.GammaPoint(0, 0)), (-0.5, 0))
        cfg = sd.with_overrides(sd.DEFAULT, dist_guard=0.9)
        F = load_matrix(str(DATA / "royal_pencil.json"))
        model = sd.build_extension(gram_on_nodes(data, kernels.model(F, cfg), cfg), cfg)
        first, second = sd.branch_trace(model, cfg)
        _same_trace(first, node_trace(model, 0, cfg))
        assert isinstance(second, sd.IllPlacedContour)
        with pytest.raises(sd.IllPlacedContour, match=re.escape(str(second))):
            node_trace(model, 1, cfg)


def unique_value_at(model, K, gamma, targets, x):
    """The uniqueness value at one point: unique_value on a one-element stack,
    with the point's flag."""
    got = sd.unique_value(model, K, gamma, targets, [x.s], [x.p])
    return complex(got.values[0]), int(got.flags[0])


class TestUniqueValue:
    def _gamma(self, data, K):
        rep = sd.psd_report(sd.pick_matrix(data, K))
        assert rep.null_vector is not None
        return rep.null_vector

    def test_sheet_pipeline(self, model_sheet, kernel_sheet, data_sheet):
        gamma = self._gamma(data_sheet, kernel_sheet)
        for p in (0.3, -0.2 + 0.4j, 0.85j, 0.9):
            w, flag = unique_value_at(model_sheet, kernel_sheet, gamma, data_sheet.targets,
                                      sd.GammaPoint(0, p))
            assert flag == 1 and abs(w - p) <= 1e-8

    def test_royal_pipeline(self, model_royal, kernel_royal, data_royal):
        gamma = self._gamma(data_royal, kernel_royal)
        for z in (0.3, -0.2 + 0.4j, 0.7j, 0.85):
            x = sd.GammaPoint(2 * z, z * z)
            w, flag = unique_value_at(model_royal, kernel_royal, gamma, data_royal.targets, x)
            assert flag == 1 and abs(w - (-x.s / 2)) <= 1e-8
            assert abs(w - (2 * x.p - x.s) / (2 - x.s)) <= 1e-8

    def test_gamma_scaling_invariance(self, model_royal, kernel_royal, data_royal):
        gamma = self._gamma(data_royal, kernel_royal)
        x = sd.GammaPoint(2 * 0.4, 0.16)
        w1, _ = unique_value_at(model_royal, kernel_royal, gamma, data_royal.targets, x)
        w2, _ = unique_value_at(model_royal, kernel_royal, (2 - 3j) * gamma,
                                data_royal.targets, x)
        # the ratio structure is scale-free; only division roundoff remains
        assert abs(w1 - w2) <= 1e-13

    def test_zero_targets_denominator_vanishes(self, model_sheet, kernel_sheet):
        gamma = np.array([1, -1]) / np.sqrt(2)
        # all-zero targets make the Pick matrix the gram itself; use a gram
        # null vector so the precondition holds, then the denominator is 0
        K = sd.KernelMatrix(kernel_sheet.nodes, np.ones((2, 2)))
        w, flag = unique_value_at(model_sheet, K, gamma, (0, 0), sd.GammaPoint(0, 0.3))
        assert flag == 0 and np.isnan(w)

    def test_rejects_non_null_gamma(self, model_royal, kernel_royal, data_royal):
        with pytest.raises(InputError):
            unique_value_at(model_royal, kernel_royal, np.array([1.0, 0.0]),
                            data_royal.targets, sd.GammaPoint(0.6, 0.09))

    def test_sandwich_against_interpolants(self, model_royal, kernel_royal, data_royal):
        # every known interpolant of the datum agrees with the formula on W cap G
        gamma = self._gamma(data_royal, kernel_royal)
        interpolants = [lambda x: -x.s / 2, lambda x: (2 * x.p - x.s) / (2 - x.s)]
        for z in (0.25, -0.3j, 0.5 + 0.2j):
            x = sd.GammaPoint(2 * z, z * z)
            w, flag = unique_value_at(model_royal, kernel_royal, gamma, data_royal.targets, x)
            assert flag == 1
            for f in interpolants:
                assert abs(w - f(x)) <= 1e-8


class TestUniqueValues:
    """The uniqueness values of a stack against its one-element stacks."""

    @staticmethod
    def _per_point(model, K, gamma, targets, s, p):
        values, flags = zip(*(unique_value_at(model, K, gamma, targets, sd.GammaPoint(a, b))
                              for a, b in zip(s, p)))
        return np.array(values), np.array(flags)

    @staticmethod
    def _grid(model, extra=()):
        ps = [0.3, -0.2 + 0.4j, 0.7j, 0.85, -0.6]
        pts = [(s, p) for p in ps for s in sd.slice_points(model.variety, p)[0]]
        pts += [(complex(x.s), complex(x.p)) for x in model.nodes] + list(extra)
        return np.array([a for a, _ in pts]), np.array([b for _, b in pts])

    @pytest.mark.parametrize("which", ["royal", "sheet"])
    def test_matches_per_point(self, which, request):
        model = request.getfixturevalue(f"model_{which}")
        K = request.getfixturevalue(f"kernel_{which}")
        data = request.getfixturevalue(f"data_{which}")
        gamma = sd.psd_report(sd.pick_matrix(data, K)).null_vector
        # a point within tol_node of a node takes the stored u_j as well
        s, p = self._grid(model, [(1e-12, 0.5)] if which == "sheet" else [(1e-12, 0)])
        got = sd.unique_value(model, K, gamma, data.targets, s, p)
        ref, flags = self._per_point(model, K, gamma, data.targets, s, p)
        assert np.array_equal(got.flags, flags) and flags.all()
        assert np.abs(got.values - ref).max() <= 1e-13
        for j, x in enumerate(model.nodes):
            # the stored u_j reproduce the target at its node
            at = np.flatnonzero((s == x.s) & (p == x.p))
            assert abs(got.values[at[0]] - data.targets[j]) <= 1e-12
        resid = [sd.membership_residual(model.variety, a, b)[0] for a, b in zip(s, p)]
        assert np.abs(got.residuals - resid).max() <= 1e-15

    def test_vanishing_denominator_nan_flag_zero(self, model_sheet, kernel_sheet):
        K = sd.KernelMatrix(kernel_sheet.nodes, np.ones((2, 2)))
        gamma = np.array([1, -1]) / np.sqrt(2)
        s, p = np.zeros(3), np.array([0.3, -0.4j, 0.5])
        got = sd.unique_value(model_sheet, K, gamma, (0, 0), s, p)
        ref, flags = self._per_point(model_sheet, K, gamma, (0, 0), s, p)
        assert got.flags.tolist() == flags.tolist() == [0, 0, 0]
        assert np.isnan(got.values).all() and np.isnan(ref).all()

    def test_off_variety_first_point_reported(self, model_royal, kernel_royal, data_royal):
        gamma = sd.psd_report(sd.pick_matrix(data_royal, kernel_royal)).null_vector
        s = np.array([0.8, 0.5, 0.7])     # (0.8, 0.16) is on s^2 = 4p, the others are not
        p = np.array([0.16, 0.3, 0.3])
        with pytest.raises(InputError, match=r"point \(\(0\.5\+0j\), \(0\.3\+0j\)\)"):
            sd.unique_value(model_royal, kernel_royal, gamma, data_royal.targets, s, p)
        with pytest.raises(InputError, match="off the variety"):
            unique_value_at(model_royal, kernel_royal, gamma, data_royal.targets,
                            sd.GammaPoint(0.7, 0.3))

    def test_membership_checked_up_to_the_first_vanishing_denominator(
            self, model_royal, kernel_royal, data_royal):
        # (0.5, 0.3) is off s^2 = 4p; (4, 4) is on it, and 1 - p conj(q) is
        # exactly 0 against the node (1, 0.25): the first of the two in the
        # order given decides the error
        gamma = sd.psd_report(sd.pick_matrix(data_royal, kernel_royal)).null_vector
        args = (model_royal, kernel_royal, gamma, data_royal.targets)
        with pytest.raises(InputError, match=re.escape("point ((0.5+0j), (0.3+0j)) is off "
                                                       "the variety")):
            sd.unique_value(*args, [0.5, 4], [0.3, 4])
        with pytest.raises(InputError,
                           match=re.escape("kernel denominator 1 - p conj(q) vanishes")):
            sd.unique_value(*args, [4, 0.5], [4, 0.3])


class TestUnitKernelVectors:
    @pytest.mark.parametrize("which", ["royal", "sheet"])
    def test_bit_identical_to_one_point(self, which, request):
        V = request.getfixturevalue(f"model_{which}").variety
        ps = [0.3, -0.2 + 0.4j, 0.7j, 0.0, 0.85]
        s = np.array([a for p in ps for a in sd.slice_points(V, p)[0]])
        p = np.repeat(ps, V.dim)
        U, sigma = kernels.unit_kernel_vector(V, s, p)
        for k in range(len(s)):
            assert np.array_equal(U[k], kernels.unit_kernel_vector(V, s[k], p[k])[0][0])
            assert abs(sigma[k] - sd.membership_residual(V, s[k], p[k])[0]) <= 1e-15

    def test_skip_exempts_from_membership_check(self, model_royal):
        V = model_royal.variety
        s, p = np.array([0.8, 0.5]), np.array([0.16, 0.3])
        with pytest.raises(InputError, match="off the variety"):
            kernels.unit_kernel_vector(V, s, p)
        U, sigma = kernels.unit_kernel_vector(V, s, p, skip=[False, True])
        assert sigma[1] > 0.1 and np.allclose(np.linalg.norm(U, axis=1), 1.0)
