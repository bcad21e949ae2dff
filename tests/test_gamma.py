import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import symdisk as sd
from symdisk.errors import InputError
from symdisk.gamma import REGIONS, Region, classify_region, phi_operator

from conftest import disk_beta, random_g_points

SQ2 = np.sqrt(2.0)

disk_points = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(min_value=0, max_value=0.97),
    st.floats(min_value=0, max_value=1, exclude_max=True),
)


class TestSymmetrize:
    def test_origin(self):
        x = sd.symmetrize(0, 0)
        assert x.s == 0 and x.p == 0

    def test_ones(self):
        x = sd.symmetrize(1, 1)
        assert x.s == 2 and x.p == 1

    def test_both_preimages(self):
        # the only two preimages of (0, 1/2) are (+-i/sqrt2, -+i/sqrt2)
        x = sd.symmetrize(1j / SQ2, -1j / SQ2)
        assert abs(x.s) < 1e-15 and abs(x.p - 0.5) < 1e-15


class TestFibers:
    def test_preimage_pair(self):
        (z1,), (z2,) = sd.stacked_fibers([0], [0.5])
        assert {round(z.imag, 12) for z in (z1, z2)} == {round(1 / SQ2, 12),
                                                         round(-1 / SQ2, 12)}
        assert max(abs(z1.real), abs(z2.real)) < 1e-15

    def test_double_root(self):
        (z1,), (z2,) = sd.stacked_fibers([2], [1])
        assert (z1, z2) == (1, 1)

    def test_zero(self):
        (z1,), (z2,) = sd.stacked_fibers([0], [0])
        assert (z1, z2) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(disk_points, disk_points)
    def test_roundtrip(self, z1, z2):
        x = sd.symmetrize(z1, z2)
        (w1,), (w2,) = sd.stacked_fibers([x.s], [x.p])
        back = sd.symmetrize(w1, w2)
        assert abs(back.s - x.s) + abs(back.p - x.p) < 1e-12


def _label(x) -> Region:
    """The region of one point: classify_region on a one-element stack."""
    return REGIONS[classify_region([x.s], [x.p])[0]]


class TestClassify:
    def test_origin_open(self):
        assert _label(sd.GammaPoint(0, 0)) is Region.OPEN_G

    def test_torus_point(self):
        assert _label(sd.GammaPoint(2, 1)) is Region.DIST_BOUNDARY

    def test_r1_lemma_point(self):
        # fibers 1 and 1/2; beta = 1 on the circle
        x = sd.GammaPoint(1.5, 0.5)
        assert _label(x) is Region.R1
        assert abs(disk_beta(x) - 1) < 1e-14

    def test_r2_and_exterior(self):
        assert _label(sd.symmetrize(0.5, 2.0)) is Region.R2
        assert _label(sd.symmetrize(1.5, 2.0)) is Region.SYM_EXTERIOR

    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False))
    def test_open_iff_both_inside(self, z1, z2):
        x = sd.symmetrize(z1, z2)
        inside = abs(z1) < 1 - 1e-7 and abs(z2) < 1 - 1e-7
        outside = abs(abs(z1) - 1) > 1e-7 and abs(abs(z2) - 1) > 1e-7
        if inside:
            assert _label(x) is Region.OPEN_G
        elif outside and _label(x) is Region.OPEN_G:
            assert abs(z1) < 1 and abs(z2) < 1


TOL_MOD = sd.DEFAULT.tol_mod
# fiber moduli on, just inside and just outside the tol_mod band, and far off it
edge_moduli = st.sampled_from([
    0.0, 0.5, 1.0, 2.0, 1.0 - TOL_MOD, 1.0 + TOL_MOD, np.nextafter(1.0 - TOL_MOD, 0.0),
    np.nextafter(1.0 + TOL_MOD, 3.0), 1.0 - 2 * TOL_MOD, 1.0 + 2 * TOL_MOD])
angles = st.floats(min_value=0, max_value=1, exclude_max=True)
off_edge_moduli = st.floats(min_value=0, max_value=2).filter(
    lambda r: abs(abs(r - 1.0) - TOL_MOD) > 1e-12)
tiny = st.sampled_from([0.0, 5e-324, 1e-310, -2.2e-308, 1e-160, 3e-150])


@st.composite
def classified_points(draw):
    """(s, p) from fibers at band edges, p = 0, double roots s^2 = 4p,
    subnormal coordinates, or anywhere in a box."""
    kind = draw(st.sampled_from(["fibers", "p_zero", "double", "subnormal", "box"]))
    z1 = draw(edge_moduli) * np.exp(2j * np.pi * draw(angles))
    z2 = draw(edge_moduli) * np.exp(2j * np.pi * draw(angles))
    if kind == "fibers":
        return sd.symmetrize(z1, z2)
    if kind == "p_zero":
        return sd.GammaPoint(z1, 0j)
    if kind == "double":
        return sd.symmetrize(z1, z1)
    if kind == "subnormal":
        return sd.GammaPoint(complex(draw(tiny), draw(tiny)), complex(draw(tiny), draw(tiny)))
    box = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    return sd.GammaPoint(draw(box), draw(box))


def _reference_label(x, tol=TOL_MOD) -> Region:
    """The per-point classification in CPython complex arithmetic."""
    s, p = complex(x.s), complex(x.p)
    disc = complex(np.sqrt(s * s - 4.0 * p + 0j))
    if abs(s + disc) < abs(s - disc):
        disc = -disc
    r1 = (s + disc) / 2.0
    r2 = p / r1 if abs(r1) > 1e-150 else (s - disc) / 2.0
    m1, m2 = abs(r1), abs(r2)
    on1, on2 = abs(m1 - 1.0) <= tol, abs(m2 - 1.0) <= tol
    # bG is |p| = 1, s = conj(s) p, |s| <= 2
    torus = abs(abs(p) - 1.0) <= tol and abs(s - s.conjugate() * p) <= tol and abs(s) <= 2.0 + tol
    if (on1 and on2) or torus:
        return Region.DIST_BOUNDARY
    if on1 or on2:
        return Region.R1
    if abs(s - s.conjugate() * p) < 1.0 - abs(p) ** 2:
        return Region.OPEN_G
    if m1 > 1.0 and m2 > 1.0:
        return Region.SYM_EXTERIOR
    return Region.R2


class TestClassifyRegions:
    # numpy's complex arithmetic may differ from CPython's in the last bit, so
    # the reference is compared away from the band edges, where no label can
    # hinge on one rounding
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(off_edge_moduli, angles, off_edge_moduli, angles),
                    min_size=1, max_size=40))
    @example(pairs=[(1.0, 0.625, 1.0, 0.625)])
    def test_stacked_labels_equal_reference(self, pairs):
        points = [sd.symmetrize(r1 * np.exp(2j * np.pi * t1), r2 * np.exp(2j * np.pi * t2))
                  for r1, t1, r2, t2 in pairs]
        codes = classify_region([x.s for x in points], [x.p for x in points])
        assert [REGIONS[c] for c in codes] == [_reference_label(x) for x in points]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(classified_points(), min_size=1, max_size=40))
    def test_stacked_labels_equal_pointwise(self, points):
        codes = classify_region([x.s for x in points], [x.p for x in points])
        assert [REGIONS[c] for c in codes] == [_label(x) for x in points]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(classified_points(), min_size=1, max_size=40))
    def test_stacked_fibers_equal_pointwise(self, points):
        r1, r2 = sd.stacked_fibers([x.s for x in points], [x.p for x in points])
        for x, a, b in zip(points, r1, r2):
            (a1,), (b1,) = sd.stacked_fibers([x.s], [x.p])
            assert (a1, b1) == (a, b)

    @pytest.mark.parametrize("q", [0.625, 0.125, 0.9, 0.0, 0.25, 0.3, 0.5, 0.77])
    def test_double_root_on_torus_is_boundary(self, q):
        # s^2 - 4p is roundoff at (2w, w^2), so the fiber moduli move by about
        # sqrt(eps); |p| = 1, s = conj(s) p and |s| <= 2 still hold to eps
        x = sd.symmetrize(np.exp(2j * np.pi * q), np.exp(2j * np.pi * q))
        assert _label(x) is Region.DIST_BOUNDARY
        assert _reference_label(x) is Region.DIST_BOUNDARY

    def test_band_edges(self):
        inside, outside = 1.0 - 0.5 * TOL_MOD, 1.0 + 2 * TOL_MOD
        labels = [REGIONS[c] for c in classify_region(
            [inside + 0.5, outside + 0.5, 2 * inside, 0.0],
            [0.5 * inside, 0.5 * outside, inside ** 2, 0.0])]
        assert labels == [Region.R1, Region.R2, Region.DIST_BOUNDARY, Region.OPEN_G]

    def test_subnormal_fibers_are_finite(self):
        r1, r2 = sd.stacked_fibers([5e-324, 0.0], [5e-324j, 5e-324])
        assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))

    def test_empty(self):
        assert classify_region([], []).shape == (0,)


def phi_scalar(alpha, s, p):
    """(2 alpha p - s) / (2 - alpha s): phi_operator on the 1 x 1 tau = [alpha]."""
    return complex(phi_operator(np.array([[alpha]]), [s], [p])[0, 0, 0])


class TestPhiScalar:
    def test_alpha_zero(self):
        assert phi_scalar(0, 1.2, 0.3) == -0.6

    def test_derived_value(self):
        assert abs(phi_scalar(1, 0, 0.5) - 0.5) < 1e-15

    def test_pole(self):
        with pytest.raises(InputError):
            phi_scalar(1, 2, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1, exclude_max=True),
           disk_points, disk_points)
    def test_contractive_on_domain(self, r, t, z1, z2):
        alpha = r * np.exp(2j * np.pi * t)
        x = sd.symmetrize(z1, z2)
        assert abs(phi_scalar(alpha, x.s, x.p)) < 1.0


class TestPhiOperator:
    def test_matches_scalar(self):
        val = sd.phi_operator(np.array([[1.0]]), [0], [0.5])[0]
        assert np.allclose(val, [[0.5]])

    def test_unitary_on_boundary_point(self):
        tau = np.array([[0, 1], [1, 0]], dtype=complex)
        out = sd.phi_operator(tau, [0], [1])[0]
        assert np.allclose(out, tau)
        assert np.linalg.norm(out.conj().T @ out - np.eye(2)) < 1e-12

    def test_singular_pencil(self):
        with pytest.raises(InputError):
            sd.phi_operator(np.array([[1.0]]), [2], [1])

    def test_unitary_on_bG_samples(self, rng):
        from symdisk.sweeps import haar_unitary
        for _ in range(25):
            tau = haar_unitary(rng, int(rng.integers(1, 4)))
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            x = sd.symmetrize(np.exp(1j * t1), np.exp(1j * t2))
            out = sd.phi_operator(tau, [x.s], [x.p])[0]
            assert np.linalg.norm(out.conj().T @ out - np.eye(tau.shape[0])) < 1e-10


def _phi_svd_at_every_point(tau, s, p, cfg=sd.DEFAULT):
    """phi_operator with the singular-pencil SVD run at every point of the stack."""
    tau = np.asarray(tau, dtype=complex)
    if np.linalg.norm(tau, 2) > 1.0 + cfg.tol_op:
        raise InputError("tau must be a contraction")
    s = np.asarray(s, dtype=complex)[:, None, None]
    p = np.asarray(p, dtype=complex)[:, None, None]
    tau = tau[None]
    eye = np.eye(tau.shape[1])[None]
    pencil = 2.0 * eye - s * tau
    sv = np.linalg.svd(pencil, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-13 * np.maximum(sv[:, 0], 1.0)):
        raise InputError("singular pencil 2*I - s*tau")
    rhs = 2.0 * p * tau - s * eye
    return np.linalg.solve(pencil.transpose(0, 2, 1), rhs.transpose(0, 2, 1)).transpose(0, 2, 1)


def _contraction(rng, kind, h):
    from symdisk.sweeps import haar_unitary
    if kind == "unitary":
        return haar_unitary(rng, h)
    if kind == "unitary_at_tol_op":
        return (1.0 + 0.999 * sd.DEFAULT.tol_op) * haar_unitary(rng, h)
    # non-normal: a Jordan-type block of 2-norm 1, a Ginibre matrix of 2-norm 1 + tol_op
    if kind == "jordan":
        M = np.diag(np.full(h, 0.5 + 0.3j)) + np.diag(np.ones(h - 1), 1)
        return M / np.linalg.norm(M, 2)
    M = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    return (1.0 + 0.999 * sd.DEFAULT.tol_op) * M / np.linalg.norm(M, 2)


def _outcome(f, tau, s, p):
    """The stack f returns, or the type of the exception it raises."""
    with np.errstate(invalid="ignore"):
        try:
            return f(tau, s, p)
        except (InputError, np.linalg.LinAlgError) as exc:
            return type(exc)


def _assert_same_outcome(new, old):
    if isinstance(old, type):
        assert new is old
    else:
        assert np.array_equal(new, old, equal_nan=True)


class TestPencilCheck:
    """phi_operator decides the singular pencil by a Weyl bound, then an SVD;
    it must raise exactly when an SVD at every point raises, and return the
    same bits otherwise."""

    OFFSETS = (-1e-12, -1e-13, -3e-14, -1e-14, 0.0, 1e-14, 3e-14, 1e-13, 1e-12,
               -1e-5, -1e-6, -4e-7, 1e-6)
    # angles off the dominant eigenvalue at |s| t = 2, where the Weyl bound
    # is 0 and the inverse decides (for a unitary tau, the torus diagonal)
    ANGLES = (1e-15, 1e-14, 1e-13, 3e-13, 1e-12, 1e-9, 3e-7, 1e-6, 3e-6, 1e-4, 1e-2)

    def _points(self, rng, tau):
        t = np.linalg.norm(tau, 2)
        lam = np.linalg.eigvals(tau)
        lam = lam[np.argmax(np.abs(lam))]
        s, p = [], []
        for delta in self.OFFSETS:
            # |s| t = 2 + delta, along the dominant eigenvalue and at a random angle
            for u in (np.conj(lam) / abs(lam), np.exp(2j * np.pi * rng.uniform())):
                s.append((2.0 + delta) / t * u)
                p.append(complex(rng.standard_normal(), rng.standard_normal()))
        for eps in self.ANGLES:
            s.append(2.0 / t * np.conj(lam) / abs(lam) * np.exp(1j * eps))
            p.append(s[-1] ** 2 / 4)
        # points far inside the bound and outside it
        for r in (0.0, 0.5, 1.9, 2.5):
            s.append(r / t * np.exp(2j * np.pi * rng.uniform()))
            p.append(complex(rng.standard_normal(), rng.standard_normal()))
        return s, p

    @pytest.mark.parametrize("kind", ["unitary", "unitary_at_tol_op", "jordan", "ginibre"])
    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_svd_at_every_point(self, kind, h, seed):
        rng = np.random.default_rng(1000 * seed + 10 * h + len(kind))
        tau = _contraction(rng, kind, h)
        s, p = self._points(rng, tau)
        raised = 0
        for k in range(len(s)):
            new = _outcome(phi_operator, tau, s[k:k + 1], p[k:k + 1])
            _assert_same_outcome(new, _outcome(_phi_svd_at_every_point, tau, s[k:k + 1],
                                               p[k:k + 1]))
            raised += new is InputError
        # the whole stack raises when any point does, else gives the same bits
        new = _outcome(phi_operator, tau, s, p)
        _assert_same_outcome(new, _outcome(_phi_svd_at_every_point, tau, s, p))
        assert (new is InputError) == (raised > 0)
        # a caller that passes ||tau||_2 gets the same outcome
        _assert_same_outcome(_outcome(functools.partial(
            phi_operator, tau_norm=np.linalg.norm(tau, 2)), tau, s, p), new)
        if kind.startswith("unitary"):
            # a normal tau has a singular pencil at |s| t = 2 along its eigenvalue
            assert raised > 0

    @pytest.mark.parametrize("s", [np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_non_finite_s_reaches_the_svd(self, s):
        # neither bound can clear a nan or infinite s, so the SVD still runs
        # there and decides as before (it raises LinAlgError on a nan pencil);
        # the point |s| = 2 goes to the inverse screen with it
        tau = np.array([[1.0]])
        s, p = [s, 0.5, 2.0 * np.exp(0.3j)], [0.0, 0.0, np.exp(0.6j)]
        _assert_same_outcome(_outcome(phi_operator, tau, s, p),
                             _outcome(_phi_svd_at_every_point, tau, s, p))

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_benign_torus_grid_runs_no_svd(self, monkeypatch, rng, h):
        # the Weyl bound clears every grid point but the diagonal, the inverse the rest
        from symdisk.sweeps import haar_unitary
        tau = haar_unitary(rng, h)
        torus = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
        s = (torus[:, None] + torus[None, :]).ravel()
        p = (torus[:, None] * torus[None, :]).ravel()
        svd = np.linalg.svd
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        phi = phi_operator(tau, s, p, tau_norm=np.linalg.norm(tau, 2))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert calls == []
        _assert_same_outcome(phi, _phi_svd_at_every_point(tau, s, p))


def test_passed_tau_norm_still_rejects_a_non_contraction():
    tau = np.array([[0.5, 0.0], [0.0, 1.0 + 1e-6]], dtype=complex)
    for t in (np.linalg.norm(tau, 2), None):
        with pytest.raises(InputError, match="tau must be a contraction"):
            phi_operator(tau, [0.1], [0.0], tau_norm=t)


class TestSzegoKernel:
    def test_origin(self):
        assert sd.szego_kernel([0], [0])[0, 0] == 1

    def test_derived_diagonal(self):
        assert abs(sd.szego_kernel([1], [0.25])[0, 0] - 256 / 81) < 1e-13

    def test_derived_offdiagonal(self):
        val = sd.szego_kernel([0, 1], [0, 0.25])[0, 1]
        assert abs(val - 1) < 1e-15

    def test_hermitian_symmetry(self, rng):
        pts = random_g_points(rng, 6)
        G = sd.szego_kernel([x.s for x in pts], [x.p for x in pts])
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert abs(G[i, j] - np.conj(G[j, i])) < 1e-12

    def test_gram_psd(self, rng):
        for _ in range(10):
            pts = random_g_points(rng, int(rng.integers(2, 7)))
            G = sd.szego_kernel([x.s for x in pts], [x.p for x in pts])
            vals = np.linalg.eigvalsh((G + G.conj().T) / 2)
            assert vals[0] >= -1e-10 * max(1.0, np.linalg.norm(G))


def test_in_closed_gamma():
    # closed Gamma: both fiber moduli at most 1, up to the tol_mod band
    x = sd.symmetrize(1.5, 0.2)
    z1, z2 = sd.stacked_fibers([2, 0, x.s], [1, 0, x.p])
    inside = np.maximum(np.abs(z1), np.abs(z2)) <= 1.0 + sd.DEFAULT.tol_mod
    assert inside.tolist() == [True, True, False]
