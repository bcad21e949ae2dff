"""Numerical range and radius, unitary (+) c.n.u. splitting, and the PU family.

The numerical radius is a stacked eigvalsh scan of the support function,
certified to tol_nu by a level-set iteration on the quadratic pencil
z^2 F* - 2rzI + F, which is the variety's own pencil along (s, p) = (2rz, z^2).
:func:`numerical_radii` runs the scan and the iteration for a list of
matrices at once, stacked by matrix order with a mask of the matrices still
iterating (Mengi & Overton 2005); each keeps its own stopping rule and
certificate, and :func:`numerical_radius` is its one-matrix call.

For a numerical contraction the unitary part is spanned by joint eigenvectors
of F and F* at unimodular eigenvalues, which are orthogonal across distinct
eigenvalues; splitting them off in one pass leaves a block with no spectrum
on the circle.  The family PU + U*(I-P) (P a projection, U a
unitary) consists of numerical contractions; :func:`pu_witness_search` finds
its unitary reducing piece by a subspace closure, without the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .linalg import as_complex_matrix, null_space, spectrum

# Shift of the shift-and-invert level-set solve: any point off the unit
# circle that is not an eigenvalue of the pencil will do.
_SHIFT = 0.5 * np.exp(1j)
# Where the support function only touches a level, the level-set point is a
# double eigenvalue on the circle, and a backward-stable eigensolver moves a
# double eigenvalue by O(sqrt(eps)).  A band of 100*sqrt(eps) keeps such
# points; a spurious point it lets in costs one midpoint evaluation, which
# cannot raise the estimate above the true maximum.
_UNIMODULAR_BAND = 100 * np.sqrt(np.finfo(float).eps)
# the level-set iteration converges quadratically and stops within a few levels
_MAX_LEVELS = 50
# the null-space cut bounds off-blocks by sqrt(2m) rank_tol*scale: 1e-9 at m = 50, rank_tol 1e-10
_REDUCED = 1e-9


def _support_values(F, thetas) -> np.ndarray:
    """Support function of F at every angle: one eigvalsh on the stacked Re(e^{-i theta} F).

    F is one matrix, a stack holding the matrix of each angle, or a stack of
    shape (m, 1, d, d), whose row k of values holds F_k at every angle.
    """
    F = np.asarray(F)
    e = np.exp(-1j * np.asarray(thetas, dtype=float))[..., None, None]
    FH = F.swapaxes(-1, -2).conj()
    return np.linalg.eigvalsh((e * F + np.conj(e) * FH) / 2)[..., -1]


def _level_set_angles(F: np.ndarray, r: np.ndarray):
    """Level-set angles of each F_k of a stack of order d at its level r_k.

    Returns (angles, counts): row k holds, in its first counts[k] entries and
    sorted, the angles theta at which r_k is an eigenvalue of
    Re(e^{-i theta} F_k); inf pads the rest.  With z = e^{i theta} this
    happens exactly when z^2 F_k* - 2 r_k z I + F_k is singular: the pencil
    F* + pF - sI sliced along (s, p) = (2rz, z^2).  The quadratic pencils are
    linearized to A - zB and solved by shift and invert, in one stacked
    ``solve`` and one stacked ``eigvals``.
    """
    m, d = F.shape[:2]
    eye = np.eye(d)
    A = np.zeros((m, 2 * d, 2 * d), dtype=complex)
    A[:, :d, d:] = eye
    A[:, d:, :d] = -F
    A[:, d:, d:] = (2 * r)[:, None, None] * eye
    B = np.zeros((m, 2 * d, 2 * d), dtype=complex)
    B[:, :d, :d] = eye
    B[:, d:, d:] = F.swapaxes(1, 2).conj()
    M = A - _SHIFT * B
    try:
        mu = np.linalg.eigvals(np.linalg.solve(M, B))
    except np.linalg.LinAlgError:
        # name the first failing matrix of the stack
        for k in range(m):
            try:
                np.linalg.eigvals(np.linalg.solve(M[k], B[k]))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"level-set pencil solve failed at r = {r[k]:.17g}: {exc}")
        raise NumericalError("level-set pencil solve failed")
    # unimodular z lie within 1 + |_SHIFT| < 2 of the shift, so |mu| > 1/2;
    # mu = 0 belongs to the infinite eigenvalues of a singular F, and every
    # mu near it is given z = inf
    z = _SHIFT + np.divide(1.0, mu, out=np.full_like(mu, np.inf), where=np.abs(mu) > 0.5)
    keep = np.abs(np.abs(z) - 1.0) <= _UNIMODULAR_BAND
    angles = np.where(keep, np.angle(z), np.inf)
    angles.sort(axis=1)
    return angles, keep.sum(axis=1)


def _radii_of_order(F: np.ndarray, cfg: Tolerances) -> np.ndarray:
    """Certified numerical radii of a stack of matrices of one order d >= 1.

    Every matrix runs the iteration of :func:`numerical_radius` with its own
    stopping rule; each level takes the still-active matrices together.
    """
    thetas = 2 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    best = _support_values(F[:, None], thetas).max(axis=1)
    active = np.arange(len(F))
    for _ in range(_MAX_LEVELS):
        angles, counts = _level_set_angles(F[active], best[active] + cfg.tol_nu / 2)
        # a matrix settles when its level set is empty or no midpoint rises above best
        if not counts.any():
            return best
        # each arc runs from an angle to the next, the last one wrapping round
        wrapped = np.concatenate([angles[:, 1:], angles[:, :1]], axis=1)
        wrapped[np.arange(len(active)), counts - 1] = angles[:, 0] + 2 * np.pi
        on_arc = np.arange(angles.shape[1]) < counts[:, None]
        owner = on_arc.nonzero()[0]
        values = _support_values(F[active[owner]], ((angles + wrapped) / 2)[on_arc])
        top = np.full(len(active), -np.inf)
        np.maximum.at(top, owner, values)
        rising = top > best[active]
        best[active[rising]] = top[rising]
        active = active[rising]
        if not len(active):
            return best
    raise NumericalError(
        f"numerical radius level set did not settle in {_MAX_LEVELS} levels")


def numerical_radii(Fs, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Certified numerical radii of a list of square matrices, stacked by order.

    Per order, one stacked eigvalsh scans the support function at cfg.n_theta
    angles for every matrix; each level of the certificate is one stacked
    solve and eigvals of the level-set pencils of the still-active matrices
    and one stacked eigvalsh on all their arc midpoints.  Each matrix keeps
    the stopping rule and the tol_nu certificate of :func:`numerical_radius`,
    so entry k does not depend on the other matrices of the list.
    """
    Fs = [as_complex_matrix(F, square=True) for F in Fs]
    by_order: dict[int, list[int]] = {}
    for k, F in enumerate(Fs):
        if F.shape[0]:
            by_order.setdefault(F.shape[0], []).append(k)
    out = np.zeros(len(Fs))
    for idx in by_order.values():
        out[idx] = _radii_of_order(np.array([Fs[k] for k in idx]), cfg)
    return out


def numerical_radius(F, cfg: Tolerances = DEFAULT) -> float:
    """max_theta of the support function, certified to tol_nu by a level set.

    A stacked scan over cfg.n_theta angles gives a lower bound ``best``.  At
    the level r = best + tol_nu/2 the level-set angles split the circle into
    arcs, on each of which the support function stays on one side of r; the
    arc midpoints are evaluated in one stacked call and the best one taken
    (Mengi & Overton 2005; He & Watson 1997).  The iteration stops when no
    midpoint rises above ``best``: then nu < r, and the returned ``best`` is a
    support value within tol_nu of nu.  The one-matrix call of
    :func:`numerical_radii`, which runs this iteration for many matrices at once.
    """
    return float(numerical_radii([F], cfg)[0])


def check_numerical_contraction(nu: float, cfg: Tolerances = DEFAULT) -> None:
    """Raise InputError unless nu <= 1 + tol_nu."""
    if nu > 1.0 + cfg.tol_nu:
        raise InputError(f"not a numerical contraction: nu = {nu:.12f}")


@dataclass(frozen=True)
class CnuVerdict:
    """Outcome of the c.n.u. test with unimodular-eigenvalue witnesses."""
    is_cnu: bool
    witnesses: tuple[complex, ...]

    def __bool__(self) -> bool:
        return self.is_cnu


def cnu_verdict(eigs, cfg: Tolerances = DEFAULT) -> CnuVerdict:
    """c.n.u. verdict of a numerical contraction from its eigenvalues.

    Witnesses are the eigenvalues within tol_mod of the unit circle, sorted
    by (real, imag).
    """
    eigs = np.asarray(eigs, dtype=complex)
    witnesses = tuple(complex(ev) for ev in
                      np.sort(eigs[np.abs(np.abs(eigs) - 1.0) <= cfg.tol_mod], kind="stable"))
    return CnuVerdict(len(witnesses) == 0, witnesses)


def is_cnu(F, cfg: Tolerances = DEFAULT) -> CnuVerdict:
    """True iff no eigenvalue lies within tol_mod of the unit circle.

    The spectral criterion characterizes complete non-unitarity only for
    numerical contractions, so nu(F) <= 1 + tol_nu is enforced first.
    """
    F = as_complex_matrix(F, square=True)
    check_numerical_contraction(numerical_radius(F, cfg), cfg)
    return cnu_verdict(spectrum(F), cfg)


@dataclass(frozen=True)
class CnuDecomposition:
    """Unitary (+) c.n.u. splitting: transform* F transform = diag(unitary, cnu)."""
    transform: np.ndarray
    unitary_eigenvalues: tuple[tuple[complex, int], ...]
    cnu_block: np.ndarray
    cnu_eigenvalues: np.ndarray   # spectrum of cnu_block


def _joint_eigenspace(F: np.ndarray, beta: complex, cfg: Tolerances,
                      found=()) -> list[np.ndarray]:
    """Orthonormal basis of ker(F - beta I) \\cap ker(F* - conj(beta) I),
    orthogonal to the vectors ``found``.

    The cut is rank_tol * max(||F||, 1): on a scalar unitary block the stacked
    pencil is all roundoff, and a cut relative to its own sigma_max keeps nothing.
    """
    n = F.shape[0]
    stacked = np.vstack([F - beta * np.eye(n), F.conj().T - np.conj(beta) * np.eye(n),
                         np.reshape(found, (-1, n)).conj()])
    return null_space(stacked, cfg=cfg, scale=max(np.linalg.norm(F), 1.0))


def _unimodular_eigenspaces(F: np.ndarray, eigs, cfg: Tolerances) -> list:
    """(beta, joint eigenbasis of F at beta) per cluster of unimodular eigenvalues.

    ``eigs`` is the spectrum of F; its unimodular members are the witnesses of
    :func:`cnu_verdict`, read in (real, imag) order.  One raw
    eigenvalue (not the cluster mean) stands for each cluster, which keeps the
    null-space cutoff sharp: unimodular eigenvalues of numerical contractions
    are semisimple, so the computed copies agree to near machine precision.
    Each eigenvalue within tol_cluster of a representative uses up one vector
    of its basis; one that finds no vector left (distinct eigenvalues closer
    than tol_cluster but beyond the cutoff) stands for a cluster of its own,
    whose basis leaves out the vectors found before it.
    """
    tol = cfg.tol_cluster * max(np.linalg.norm(F), 1.0)
    parts: list = []
    spare: list[int] = []   # vectors of each part's basis not yet used up
    for ev in cnu_verdict(eigs, cfg).witnesses:
        k = next((k for k, (beta, _) in enumerate(parts)
                  if spare[k] > 0 and abs(ev - beta) <= tol), None)
        if k is None:
            found = [v for _, basis in parts for v in basis]
            parts.append((ev, _joint_eigenspace(F, ev, cfg, found)))
            spare.append(len(parts[-1][1]) - 1)
        else:
            spare[k] -= 1
    return parts


def cnu_decompose(F, cfg: Tolerances = DEFAULT) -> CnuDecomposition:
    """Split a numerical contraction into its unitary and c.n.u. parts.

    Each unimodular eigenvalue of a numerical contraction sits on the boundary
    of the numerical range and therefore carries a reducing joint eigenvector;
    joint eigenvectors at distinct unimodular eigenvalues are orthogonal, so
    together they span the unitary part, and its complement is c.n.u.
    """
    F = as_complex_matrix(F, square=True)
    check_numerical_contraction(numerical_radius(F, cfg), cfg)
    return _peel_unitary(F, cfg)


def _peel_unitary(F: np.ndarray, cfg: Tolerances) -> CnuDecomposition:
    """The splitting of :func:`cnu_decompose` for a certified numerical contraction F.

    One spectrum of F, one joint eigenbasis per unimodular cluster, and one
    complete QR of all of them: the unitary part leads, its clusters in
    descending (real, imag) order, and the c.n.u. block is the rest.
    """
    n = F.shape[0]
    eigs = spectrum(F)
    parts = _unimodular_eigenspaces(F, eigs, cfg)
    if not parts:
        return CnuDecomposition(np.eye(n, dtype=complex), (), F.copy(), eigs)
    for beta, basis in parts:
        if not basis:
            raise NumericalError(
                f"unimodular eigenvalue {beta:.6f} has no reducing eigenvector")
    parts.reverse()
    Q = np.column_stack([v for _, basis in parts for v in basis])
    m = Q.shape[1]
    transform = np.linalg.qr(Q, mode="complete")[0]
    G = transform.conj().T @ F @ transform
    scale = max(np.linalg.norm(F), 1.0)
    if np.linalg.norm(G[:m, m:]) + np.linalg.norm(G[m:, :m]) > _REDUCED * scale:
        raise NumericalError("joint eigenspace failed to reduce the matrix")
    cnu_block = G[m:, m:]
    D = np.zeros((n, n), dtype=complex)
    D[:m, :m] = np.diag([beta for beta, basis in parts for _ in basis])
    D[m:, m:] = cnu_block
    err = np.linalg.norm(transform @ D @ transform.conj().T - F)
    if err > _REDUCED * scale:
        raise NumericalError(f"c.n.u. decomposition reassembly residual {err:.3e}")
    return CnuDecomposition(transform, tuple((beta, len(basis)) for beta, basis in parts),
                            cnu_block, spectrum(cnu_block))


def _pu_matrix(P, U, cfg: Tolerances) -> np.ndarray:
    """PU + U*(I - P) after validating P as a projection and U as a unitary."""
    P = as_complex_matrix(P, square=True)
    U = as_complex_matrix(U, square=True)
    if P.shape != U.shape:
        raise InputError("P and U must have the same dimension")
    n = P.shape[0]
    scale = max(1.0, np.linalg.norm(P))
    if np.linalg.norm(P @ P - P) > cfg.tol_op * scale or \
            np.linalg.norm(P - P.conj().T) > cfg.tol_op * scale:
        raise InputError("P is not an orthogonal projection to tolerance")
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > cfg.tol_op:
        raise InputError("U is not unitary to tolerance")
    return P @ U + U.conj().T @ (np.eye(n) - P)


def pu_compress(P, U, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """The numerical contraction PU + U*(I - P) for a projection P, unitary U."""
    T = _pu_matrix(P, U, cfg)
    nu = numerical_radius(T, cfg)
    if nu > 1.0 + cfg.tol_nu:
        raise NumericalError(f"PU compression has nu = {nu:.12f} > 1")
    return T


def verify_pu_reducing(P, U, H_basis, cfg: Tolerances = DEFAULT) -> bool:
    """Check a candidate witness subspace H for the block splitting of U.

    True iff H reduces P, is invariant for U and U*, and U maps P.H into P.H
    and (I-P).H into (I-P).H.  Such an H certifies that PU + U*(I-P) has a
    unitary reducing piece, i.e. is not completely non-unitary.
    """
    P = as_complex_matrix(P, square=True)
    U = as_complex_matrix(U, square=True)
    cols = [np.asarray(v, dtype=complex).ravel() for v in H_basis]
    if not cols:
        return False
    H = np.column_stack(cols)
    gram = H.conj().T @ H
    if np.linalg.norm(gram - np.eye(H.shape[1])) > cfg.tol_gram * max(1.0, np.linalg.norm(gram)):
        raise InputError("H_basis is not orthonormal")

    proj_H = H @ H.conj().T

    def stays_inside(X: np.ndarray) -> bool:
        if X.size == 0:
            return True
        return np.linalg.norm(X - proj_H @ X) <= cfg.tol_op * max(1.0, np.linalg.norm(X))

    if not stays_inside(P @ H):
        return False
    if not (stays_inside(U @ H) and stays_inside(U.conj().T @ H)):
        return False
    for piece in (P @ H, (np.eye(P.shape[0]) - P) @ H):
        Q = _col_basis(piece, cfg)
        if Q.shape[1] == 0:
            continue
        img = U @ Q
        if np.linalg.norm(img - Q @ (Q.conj().T @ img)) > cfg.tol_op * max(1.0, np.linalg.norm(img)):
            return False
    return True


def _col_basis(X: np.ndarray, cfg: Tolerances) -> np.ndarray:
    """Orthonormal basis of the column span of X (unit-scale inputs).

    The cutoff keeps an absolute floor so an all-roundoff column (e.g. P.H
    when H sits inside ker P) counts as empty rather than as a noise basis.
    """
    if X.size == 0:
        return np.zeros((X.shape[0], 0), dtype=complex)
    U_, sv, _ = np.linalg.svd(X)
    r = int(np.sum(sv > cfg.rank_tol * max(sv[0], 1.0)))
    return U_[:, :r]


def pu_witness_search(P, U, cfg: Tolerances = DEFAULT):
    """The largest subspace H that reduces P and U and on which PU = UP, or None.

    Such an H is a unitary reducing piece of PU + U*(I-P), so a witness exists
    exactly when that matrix is not completely non-unitary.  The search is
    complete and reads neither the spectrum nor the eigenvectors of the
    matrix: see :func:`_pu_witness`.  Returns an orthonormal basis of H as a
    list of vectors, once :func:`verify_pu_reducing` has passed it.
    """
    _pu_matrix(P, U, cfg)
    return _pu_witness(np.asarray(P, dtype=complex), np.asarray(U, dtype=complex), cfg)


def _pu_witness(P: np.ndarray, U: np.ndarray, cfg: Tolerances):
    """The search of :func:`pu_witness_search` on a pair that :func:`_pu_matrix` validated.

    K starts as the range of [C, C*], C = PU - UP, and grows to the span of
    [K, PK, UK, U*K] until its dimension stops rising, at most d rounds.  K is
    then the smallest subspace that holds the ranges of C and C* and is
    invariant under P, U and U*, so H = K-perp is the largest subspace that
    reduces P and U and on which they commute.
    """
    Uh = U.conj().T
    C = P @ U - U @ P
    K = _col_basis(np.hstack([C, C.conj().T]), cfg)
    while True:
        grown = _col_basis(np.hstack([K, P @ K, U @ K, Uh @ K]), cfg)
        if grown.shape[1] == K.shape[1]:
            break
        K = grown
    H = list(np.linalg.svd(K)[0][:, K.shape[1]:].T)   # the left singular vectors past K
    return H if H and verify_pu_reducing(P, U, H, cfg) else None
