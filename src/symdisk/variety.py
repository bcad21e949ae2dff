"""Determinantal varieties det(F* + p F - s I) = 0 of numerical contractions.

The variety of a d x d numerical contraction F is an algebraic curve that
always meets the closed symmetrized bidisk; it is a distinguished variety
exactly when F is completely non-unitary.  This module provides the defining
polynomial, slicing, membership residuals, the distinguished classification,
region audits, and the sampled boundary-property check.  Slices and residuals
take arrays of points, and region audits a list of varieties:
:func:`region_audit` slices every variety of one order in one stacked
``eigvals``.  A caller that certified nu(F) itself, such as the sweeps with
one :func:`symdisk.numrange.numerical_radii` call per block, builds the
variety with ``PencilVariety._of_certified``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .gamma import REGIONS, Region, classify_region, stacked_fibers
from .linalg import as_complex_matrix, spectrum
from .numrange import (CnuVerdict, check_numerical_contraction, cnu_verdict,
                       numerical_radius)


@dataclass(frozen=True)
class BivarPoly:
    """Bivariate polynomial sum_{i,j} c[i][j] s^i p^j with trimmed coefficients."""
    coeffs: np.ndarray

    @staticmethod
    def from_coeffs(coeffs) -> "BivarPoly":
        C = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        C = _trim(C)
        return BivarPoly(C)

    @property
    def deg_s(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_p(self) -> int:
        return self.coeffs.shape[1] - 1

    def __call__(self, s: complex, p: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval2d(s, p, self.coeffs))

    def normalized(self) -> np.ndarray:
        """Unit-Frobenius coefficients with the largest entry made positive real."""
        C = self.coeffs.copy()
        nrm = np.linalg.norm(C)
        if nrm == 0:
            return C
        C = C / nrm
        k = np.argmax(np.abs(C))
        pivot = C.flat[k]
        C = C * (np.conj(pivot) / abs(pivot))
        return C


# about 450 ulps of max(max |c|, 1): DFT-interpolation roundoff where a coefficient is zero
_TRIM_FLOOR = 1e-13


def _trim(C: np.ndarray) -> np.ndarray:
    tol = _TRIM_FLOOR * max(np.abs(C).max(), 1.0) if C.size else 0.0
    rows = np.where(np.abs(C).max(axis=1) > tol)[0]
    cols = np.where(np.abs(C).max(axis=0) > tol)[0]
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((1, 1), dtype=complex)
    return C[: rows[-1] + 1, : cols[-1] + 1]


def pencil_matrix(F: np.ndarray, s, p) -> np.ndarray:
    """F* + pF - sI, singular exactly at the points (s, p) of the variety of F.

    ``s`` and ``p`` may be arrays shaped to broadcast against F, giving a
    stack of pencils.  The kernel side uses its adjoint F + conj(p) F* - conj(s) I.
    """
    return F.conj().T + p * F - s * np.eye(F.shape[0])


@dataclass(frozen=True)
class PencilVariety:
    """The zero set of det(F* + p F - s I) for a numerical contraction F.

    nu(F) is computed at construction and the eigenvalues of F on first use;
    both are stored and reused by every verdict on the variety.
    """
    F: np.ndarray
    cfg: Tolerances = field(default=DEFAULT, repr=False, compare=False)
    nu: float = field(init=False)

    def __post_init__(self):
        F = as_complex_matrix(self.F, square=True)
        self._certify(F, numerical_radius(F, self.cfg))

    @classmethod
    def _of_certified(cls, F: np.ndarray, nu: float, cfg: Tolerances) -> "PencilVariety":
        """The variety of a validated complex matrix F whose nu(F) the caller computed."""
        V = cls.__new__(cls)
        object.__setattr__(V, "cfg", cfg)
        V._certify(F, nu)
        return V

    def _certify(self, F: np.ndarray, nu: float) -> None:
        """Store F and nu = nu(F); InputError if F is no numerical contraction."""
        check_numerical_contraction(nu, self.cfg)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "nu", float(nu))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of F, sorted by (real, imag)."""
        return _sorted_eigenvalues(spectrum(self.F))

    @property
    def dim(self) -> int:
        return self.F.shape[0]


def _sorted_eigenvalues(eigs) -> np.ndarray:
    return np.sort(np.asarray(eigs, dtype=complex), kind="stable")


def _with_eigenvalues(V: PencilVariety, eigs) -> None:
    """Store ``eigs``, the spectrum of V.F computed elsewhere, as V's eigenvalues:
    the first read of ``V.eigenvalues`` then takes no eigensolve."""
    V.__dict__["eigenvalues"] = _sorted_eigenvalues(eigs)


def defining_poly(V: PencilVariety) -> BivarPoly:
    """Coefficients of det(F* + p F - s I) via 2-D DFT interpolation.

    The determinant has degree d in s (leading coefficient (-1)^d) and at most
    d in p, so evaluating on a (d+1) x (d+1) tensor grid of scaled roots of
    unity (s-radius 2, p-radius 1) determines it exactly up to roundoff.
    """
    n = V.dim + 1
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.linalg.det(pencil_matrix(V.F, 2.0 * omega[:, None, None, None],
                                       omega[None, :, None, None]))
    hatc = np.fft.fft2(vals) / (n * n)
    # the p-radius is 1, so only the s powers rescale the coefficients
    return BivarPoly.from_coeffs(hatc / (2.0 ** np.arange(n))[:, None])


def slice_points(V: PencilVariety, p) -> np.ndarray:
    """Row k holds every s with (s, p_k) on the variety, in canonical order.

    The rows are the spectra of the pencils F* + p_k F, from one stacked
    ``eigvals`` call, sorted by real part rounded to a grid of
    1e-8 * max(1, ||F||_F) * (1 + |p_k|), then by imaginary part descending:
    points whose real parts differ by roundoff keep their order.  A scalar p
    gives one row, from the same arithmetic as one entry of a stack.
    """
    return _slices(V.F[None], np.asarray(p, dtype=complex))[0]


def _slices(F: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Entry [m, k] holds the canonically sorted spectrum of F_m* + p_k F_m, for a stack F
    of one order and the points p_k of p in flat order: one stacked ``eigvals`` call."""
    if not np.all(np.isfinite(p)):
        raise InputError("slice coordinates p must be finite")
    m, d = F.shape[:2]
    if d == 0:
        return np.zeros((m, p.size, 0), dtype=complex)
    # the pencils of each matrix on their own, so its slices do not depend on
    # the rest of the stack; p keeps its shape, since numpy rounds p F in
    # another inner loop when a one-element stack of p meets a 1 x 1 F
    pencils = np.stack([pencil_matrix(Fk, 0.0, p[..., None, None]) for Fk in F])
    try:
        eigs = np.linalg.eigvals(pencils).reshape(m, p.size, d)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed to converge: {exc}")
    # real parts on a grid far above roundoff, so that points whose real
    # parts tie up to roundoff are ordered by imaginary part, descending
    grid = 1e-8 * np.maximum(1.0, np.linalg.norm(F, axis=(1, 2)))[:, None, None] \
        * (1.0 + np.abs(p.ravel()))[:, None]
    order = np.lexsort((-eigs.imag, np.round(eigs.real / grid)), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)


def membership_residual(V: PencilVariety, s, p) -> np.ndarray:
    """sigma_min(F* + p_k F - s_k I) at every (s_k, p_k); zero exactly on the variety.

    All pencils go to one stacked SVD; 0-d ``s`` and ``p`` give one entry.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if s.shape != p.shape:
        raise InputError("s and p must have the same shape")
    if V.dim == 0:
        return np.full(s.size, np.inf)  # det of the empty pencil is 1: the variety is empty
    sv = np.linalg.svd(pencil_matrix(V.F, s[..., None, None], p[..., None, None]),
                       compute_uv=False)
    return sv.reshape(s.size, V.dim)[:, -1]


def is_distinguished(V: PencilVariety, cfg: Tolerances = DEFAULT) -> CnuVerdict:
    """Distinguished iff F is c.n.u.; witnesses are unimodular eigenvalues.

    F is a numerical contraction by construction of V, so the verdict reads
    the stored spectrum.
    """
    return cnu_verdict(V.eigenvalues, cfg)


@dataclass(frozen=True)
class RegionAuditReport:
    """Classification census of sampled variety points: sample k is (s[k], p[k]),
    labelled REGIONS[codes[k]]; the offenders are the samples labelled R1 or R2."""
    counts: dict
    s: np.ndarray
    p: np.ndarray
    codes: np.ndarray
    strict_pass: bool   # no R1 and no R2 hits (the c.n.u. criterion)
    r2_free: bool       # no R2 hits (holds for every numerical contraction)


def default_p_grid(radii=(0.15, 0.35, 0.55, 0.75, 0.92, 1.08, 1.35),
                   n_angles: int = 16) -> np.ndarray:
    """Slice grid avoiding the |p| = 1 band, inside and outside the disk:
    ``n_angles`` points on each circle of radius ``radii``, circle by circle."""
    # the angles are divided as reals: numpy divides a complex array by
    # multiplying with the reciprocal, which moves last bits when n_angles is
    # not a power of two
    circle = np.exp(1j * (2 * np.pi * np.arange(n_angles) / n_angles))
    return (np.asarray(radii, dtype=float)[:, None] * circle).ravel()


_DEFAULT_P_GRID = default_p_grid()


def region_audit(Vs, p_grid=None, cfg: Tolerances = DEFAULT) -> list[RegionAuditReport]:
    """Classify the sampled points of every variety of a list and count region hits.

    A c.n.u. pencil avoids both R1 and R2 (strict PASS); a general numerical
    contraction still never meets R2.  The slices of all varieties of one
    order come from one stacked ``eigvals`` over varieties x ``p_grid``, and
    all sampled points are labelled in one
    :func:`symdisk.gamma.classify_region` call.  Report k equals
    ``region_audit([Vs[k]], p_grid, cfg)[0]``: the points, codes and counts
    of one variety do not depend on the others.
    """
    if not Vs:
        return []
    p_arr = _DEFAULT_P_GRID if p_grid is None else np.asarray(p_grid, dtype=complex).ravel()
    s_of: list = [None] * len(Vs)
    by_order: dict[int, list[int]] = {}
    for k, V in enumerate(Vs):
        by_order.setdefault(V.dim, []).append(k)
    for idx in by_order.values():
        slices = _slices(np.stack([Vs[k].F for k in idx]), p_arr)
        for k, row in zip(idx, slices):
            s_of[k] = row.ravel()
    p_of = [np.repeat(p_arr, V.dim) for V in Vs]
    sizes = [len(s) for s in s_of]
    codes = classify_region(np.concatenate(s_of), np.concatenate(p_of), cfg)
    owner = np.repeat(np.arange(len(Vs)), sizes)
    counts = np.bincount(owner * len(REGIONS) + codes,
                         minlength=len(Vs) * len(REGIONS)).reshape(len(Vs), len(REGIONS))
    code_r1, code_r2 = REGIONS.index(Region.R1), REGIONS.index(Region.R2)
    return [RegionAuditReport(
        counts={label.value: int(n) for label, n in zip(REGIONS, row)},
        s=s,
        p=p,
        codes=c,
        strict_pass=bool(row[code_r1] == 0 and row[code_r2] == 0),
        r2_free=bool(row[code_r2] == 0),
    ) for s, p, c, row in zip(s_of, p_of, np.split(codes, np.cumsum(sizes)[:-1]), counts)]


def distinguished_property_check(V: PencilVariety, s, p, cfg: Tolerances = DEFAULT) -> bool:
    """Sampled boundary constraint: Gamma-boundary hits must be bG hits.

    The samples are the points (s_k, p_k) of two equal-length arrays, such as
    the ``s`` and ``p`` of a :class:`RegionAuditReport`.  Among samples whose
    larger fiber modulus sits in the tol_mod band around 1 (with the other not
    outside the closed disk), both moduli must be in the band.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    z1, z2 = stacked_fibers(s, p)
    m_lo = np.minimum(np.abs(z1), np.abs(z2))
    m_hi = np.maximum(np.abs(z1), np.abs(z2))
    on_boundary = (np.abs(m_hi - 1.0) <= cfg.tol_mod) & (m_lo <= 1.0 + cfg.tol_mod)
    return not np.any(on_boundary & (np.abs(m_lo - 1.0) > cfg.tol_mod))
