"""Dense complex linear algebra used by every other module.

General eigenvalues, Hermitian and PSD eigensolves, null spaces and PSD
square roots are numpy/LAPACK calls behind validated contracts; Riesz
projections onto the eigenvalues in a disk (from the matrix sign function)
and the audit every spectral projection passes are built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import IllPlacedContour, InputError, NumericalError

_EPS = np.finfo(float).eps
_MAX_SIGN_STEPS = 60


def as_complex_matrix(A, square: bool = False) -> np.ndarray:
    """Validate and return a 2-D complex ndarray with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {M.ndim}")
    if square and M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InputError("matrix has non-finite entries")
    return M


def spectrum(A) -> np.ndarray:
    """All eigenvalues of a square complex matrix, with multiplicity.

    LAPACK ``zgeev`` through ``np.linalg.eigvals``.  The order of the returned
    eigenvalues is unspecified; callers that print or serialize them sort by
    (real, imag).
    """
    A = as_complex_matrix(A, square=True)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed to converge: {exc}")


def cluster_indices(values, tol: float) -> list[list[int]]:
    """Greedy clusters of values in (real, imag) order, as index lists.

    A value joins the first cluster whose current mean lies within ``tol``.
    """
    values = np.asarray(values, dtype=complex)
    groups: list[list[int]] = []
    for i in np.argsort(values, kind="stable").tolist():
        for g in groups:
            if abs(values[i] - np.mean(values[g])) <= tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def cluster_eigenvalues(eigs, scale: float, cfg: Tolerances = DEFAULT):
    """Group eigenvalues within tol_cluster*scale; returns (mean, count) pairs."""
    eigs = np.asarray(eigs, dtype=complex)
    groups = cluster_indices(eigs, cfg.tol_cluster * max(scale, 1.0))
    return [(complex(np.mean(eigs[g])), len(g)) for g in groups]


def hermitian_part(M, cfg: Tolerances = DEFAULT, what: str = "matrix") -> np.ndarray:
    """(M + M*)/2 for a square M that is Hermitian to tol_herm (relative)."""
    M = as_complex_matrix(M, square=True)
    if np.linalg.norm(M - M.conj().T) > cfg.tol_herm * max(np.linalg.norm(M), 1.0):
        raise InputError(f"{what} is not Hermitian to tolerance")
    return (M + M.conj().T) / 2


def null_space(A, *, cfg: Tolerances = DEFAULT, scale: float | None = None):
    """Right singular vectors with singular value <= rank_tol * scale (default sigma_max)."""
    A = as_complex_matrix(A)
    _, sv, Vh = np.linalg.svd(A)
    if scale is None:
        scale = max(sv.max(initial=0.0), _EPS)
    # rows of Vh past the singular values span ker A outright
    return list(Vh[np.pad(sv, (0, A.shape[1] - len(sv))) <= cfg.rank_tol * scale].conj())


def psd_eigh(M, cfg: Tolerances = DEFAULT):
    """eigh of Hermitian M clipped at 0; rejects M indefinite beyond tol_psd*max(||M||, 1)."""
    vals, vecs = np.linalg.eigh(hermitian_part(M, cfg))
    if len(vals) and vals[0] < -cfg.tol_psd * max(np.linalg.norm(M), 1.0):
        raise InputError(f"matrix is indefinite: min eigenvalue {vals[0]:.3e}")
    return np.clip(vals, 0.0, None), vecs


def psd_sqrt(M, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Hermitian PSD square root; rejects matrices indefinite beyond tol_psd."""
    vals, vecs = psd_eigh(M, cfg)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return (root + root.conj().T) / 2


@dataclass(frozen=True)
class SpectralProjection:
    """Riesz projection of a matrix onto its eigenvalues inside a disk."""
    matrix: np.ndarray
    enclosed_count: int
    center: complex
    radius: float
    idempotency_defect: float


def spectral_projection(A, center: complex, radius: float, cfg: Tolerances = DEFAULT,
                        eigenvalues=None) -> SpectralProjection:
    """Riesz projection onto the eigenvalues of A in the disk |z - center| < radius.

    The Cayley map W = I + 2 (U - I)^-1 of U = (A - center I) / radius sends
    the disk to the open left half plane and its exterior to the right, so
    P = (I - sign W) / 2 (Higham, Functions of Matrices, SIAM 2008, ch. 5;
    Kenney & Laub, SIAM J. Matrix Anal. Appl. 12 (1991)); see
    :func:`_matrix_sign`.  Raises :class:`IllPlacedContour` when an
    eigenvalue comes within ``dist_guard * radius`` of the circle.
    ``eigenvalues``, the spectrum of A from :func:`spectrum`, saves
    recomputing it when one matrix is projected around several centers or radii.
    """
    A = as_complex_matrix(A, square=True)
    if radius <= 0:
        raise InputError("contour radius must be positive")
    if eigenvalues is None:
        eigs = spectrum(A)
    else:
        eigs = np.asarray(eigenvalues, dtype=complex)
        if eigs.shape != (A.shape[0],):
            raise InputError(f"{eigs.shape} eigenvalues passed for a matrix of order {A.shape[0]}")
    dist = np.abs(np.abs(eigs - center) - radius)
    if len(eigs) and dist.min() < cfg.dist_guard * radius:
        raise IllPlacedContour(
            f"eigenvalue within {dist.min():.3e} of the contour (radius {radius:.3e})")
    enclosed = int(np.sum(np.abs(eigs - center) < radius))
    eye = np.eye(A.shape[0])
    U = (A - center * eye) / radius
    try:
        P = (eye - _matrix_sign(eye + 2 * np.linalg.inv(U - eye))) / 2
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix sign iteration failed: {exc}")
    defect = float(audit_projections(P[None], [enclosed], cfg)[0])
    return SpectralProjection(P, enclosed, complex(center), float(radius), defect)


def _matrix_sign(X: np.ndarray) -> np.ndarray:
    """sign(X) by the Newton iteration X <- (mu X + (mu X)^-1) / 2.

    The determinant scaling mu = |det X|^(-1/n) stops once the relative step
    falls to 1e-2, where convergence is quadratic.  The iteration ends one
    step after the relative step reaches sqrt(eps), or when an unscaled step
    fails to halve the last one, where roundoff has taken over (Higham,
    section 5.8), and raises :class:`NumericalError` after _MAX_SIGN_STEPS.
    """
    n = len(X)
    if not n:
        return X
    last = np.inf
    for _ in range(_MAX_SIGN_STEPS):
        X_inv = np.linalg.inv(X)
        mu = np.exp(-np.linalg.slogdet(X)[1] / n) if last > 1e-2 else 1.0
        X_next = (mu * X + X_inv / mu) / 2
        step = np.linalg.norm(X_next - X) / np.linalg.norm(X_next)
        X = X_next
        if last <= np.sqrt(_EPS) or (last <= 1e-2 and step > last / 2):
            return X
        last = step
    raise NumericalError(f"matrix sign iteration did not converge in {_MAX_SIGN_STEPS} steps")


def audit_projections(P, enclosed, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """||P_k^2 - P_k||_F of a stack of spectral projections, each checked.

    P_k fails as not idempotent when its defect exceeds
    tol_proj * max(1, ||P_k||_2^2), and fails its rank check when its trace is
    not within 0.01 of the integer ``enclosed[k]``.  Raises on the first
    failure in stack order.
    """
    defects, failures = _projection_failures(P, enclosed, cfg)
    if failures:
        raise failures[min(failures)]
    return defects


def _projection_failures(P, enclosed, cfg: Tolerances):
    """The defects of :func:`audit_projections` and its error for each failed
    projection, by stack index: a stack that serves several callers gives each
    the first failure among its own projections."""
    P = np.asarray(P, dtype=complex)
    enclosed = np.asarray(enclosed)
    defects = np.linalg.norm(P @ P - P, axis=(1, 2))
    # non-orthogonal projections near branch points have large norm; the
    # idempotency contract is relative to that intrinsic scale, which only a
    # defect above tol_proj needs
    bound = np.full(len(P), cfg.tol_proj)
    big = defects > cfg.tol_proj
    if big.any():
        bound[big] *= np.maximum(1.0, np.linalg.norm(P[big], 2, axis=(1, 2)) ** 2)
    tr = np.trace(P, axis1=1, axis2=2)
    rank = np.round(tr.real)
    idempotent = defects <= bound
    ranked = (np.abs(tr - rank) <= 0.01) & (rank == enclosed)
    failures = {}
    for k in np.flatnonzero(~(idempotent & ranked)).tolist():
        failures[k] = NumericalError(
            f"projection not idempotent: ||P^2-P|| = {defects[k]:.3e}" if not idempotent[k]
            else f"projection rank {tr[k]:.6f} disagrees with enclosed count {enclosed[k]}")
    return defects, failures
