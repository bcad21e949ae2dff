"""Numerical range and radius, unitary (+) c.n.u. splitting, and the PU family.

The numerical radius is a stacked eigvalsh scan of the support function,
certified to tol_nu by a level-set iteration on the quadratic pencil
z^2 F* - 2rzI + F, which is the variety's own pencil along (s, p) = (2rz, z^2).

For a numerical contraction the unitary part is spanned by joint eigenvectors
of F and F* at unimodular eigenvalues; peeling those off leaves a block with
no spectrum on the circle.  The family PU + U*(I-P) (P a projection, U a
unitary) consists of numerical contractions and is handled by the same tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .linalg import _orthogonal_complement, as_complex_matrix, null_space, spectrum

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


def _support_values(F: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Support function at every angle: one eigvalsh on the stacked Re(e^{-i theta} F)."""
    e = np.exp(-1j * np.asarray(thetas, dtype=float))[:, None, None]
    return np.linalg.eigvalsh((e * F + np.conj(e) * F.conj().T) / 2)[:, -1]


def _level_set_angles(F: np.ndarray, r: float) -> np.ndarray:
    """Sorted angles theta at which r is an eigenvalue of Re(e^{-i theta} F).

    With z = e^{i theta} this happens exactly when z^2 F* - 2 r z I + F is
    singular: the pencil F* + pF - sI sliced along (s, p) = (2rz, z^2).  The
    quadratic pencil is linearized to A - zB and solved by shift and invert.
    """
    d = F.shape[0]
    diag = np.arange(d)
    A = np.zeros((2 * d, 2 * d), dtype=complex)
    A[diag, d + diag] = 1.0
    A[d:, :d] = -F
    A[d + diag, d + diag] = 2 * r
    B = np.zeros((2 * d, 2 * d), dtype=complex)
    B[diag, diag] = 1.0
    B[d:, d:] = F.conj().T
    try:
        mu = np.linalg.eigvals(np.linalg.solve(A - _SHIFT * B, B))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"level-set pencil solve failed at r = {r:.17g}: {exc}")
    # unimodular z lie within 1 + |_SHIFT| < 2 of the shift, so |mu| > 1/2;
    # mu = 0 belongs to the infinite eigenvalues of a singular F
    mu = mu[np.abs(mu) > 0.5]
    z = _SHIFT + 1.0 / mu
    return np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR_BAND]))


def numerical_radius(F, cfg: Tolerances = DEFAULT) -> float:
    """max_theta of the support function, certified to tol_nu by a level set.

    A stacked scan over cfg.n_theta angles gives a lower bound ``best``.  At
    the level r = best + tol_nu/2 the level-set angles split the circle into
    arcs, on each of which the support function stays on one side of r; the
    arc midpoints are evaluated in one stacked call and the best one taken
    (Mengi & Overton 2005; He & Watson 1997).  The iteration stops when no
    midpoint rises above ``best``: then nu < r, and the returned ``best`` is a
    support value within tol_nu of nu.
    """
    F = as_complex_matrix(F, square=True)
    if F.shape[0] == 0:
        return 0.0
    thetas = 2 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    best = float(_support_values(F, thetas).max())
    for _ in range(_MAX_LEVELS):
        angles = _level_set_angles(F, best + cfg.tol_nu / 2)
        if len(angles) == 0:
            return best
        wrapped = np.append(angles[1:], angles[0] + 2 * np.pi)
        top = float(_support_values(F, (angles + wrapped) / 2).max())
        if top <= best:
            return best
        best = top
    raise NumericalError(
        f"numerical radius level set did not settle in {_MAX_LEVELS} levels")


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
    witnesses = tuple(sorted((complex(ev) for ev in eigs if abs(abs(ev) - 1.0) <= cfg.tol_mod),
                             key=lambda z: (z.real, z.imag)))
    return CnuVerdict(len(witnesses) == 0, witnesses)


def is_cnu(F, cfg: Tolerances = DEFAULT) -> CnuVerdict:
    """True iff no eigenvalue lies within tol_mod of the unit circle.

    The spectral criterion characterizes complete non-unitarity only for
    numerical contractions, so nu(F) <= 1 + tol_nu is enforced first.
    """
    F = as_complex_matrix(F, square=True)
    check_numerical_contraction(numerical_radius(F, cfg), cfg)
    return cnu_verdict(spectrum(F, cfg), cfg)


@dataclass(frozen=True)
class CnuDecomposition:
    """Unitary (+) c.n.u. splitting: transform* F transform = diag(unitary, cnu)."""
    transform: np.ndarray
    unitary_eigenvalues: tuple[tuple[complex, int], ...]
    cnu_block: np.ndarray


def _joint_eigenspace(F: np.ndarray, beta: complex, cfg: Tolerances) -> list[np.ndarray]:
    """Orthonormal basis of ker(F - beta I) \\cap ker(F* - conj(beta) I).

    The cut is rank_tol * max(||F||, 1): on a scalar unitary block the stacked
    pencil is all roundoff, and a cut relative to its own sigma_max keeps nothing.
    """
    n = F.shape[0]
    stacked = np.vstack([F - beta * np.eye(n), F.conj().T - np.conj(beta) * np.eye(n)])
    return null_space(stacked, cfg=cfg, scale=max(np.linalg.norm(F), 1.0))


def _unimodular_reps(eigs, scale: float, cfg: Tolerances) -> list[complex]:
    """One raw representative per cluster of unimodular eigenvalues.

    Raw values (not cluster means) keep the null-space cutoff sharp: unimodular
    eigenvalues of numerical contractions are semisimple, so the computed
    copies agree to near machine precision.
    """
    uni = sorted((ev for ev in eigs if abs(abs(ev) - 1.0) <= cfg.tol_mod),
                 key=lambda z: (z.real, z.imag))
    reps: list[complex] = []
    tol = cfg.tol_cluster * max(scale, 1.0)
    for ev in uni:
        if not any(abs(ev - r) <= tol for r in reps):
            reps.append(complex(ev))
    return reps


def cnu_decompose(F, cfg: Tolerances = DEFAULT) -> CnuDecomposition:
    """Peel unimodular eigenvalues off a numerical contraction.

    Each unimodular eigenvalue of a numerical contraction sits on the boundary
    of the numerical range and therefore carries a reducing joint eigenvector;
    the peeling repeats until the remaining block is c.n.u.
    """
    F = as_complex_matrix(F, square=True)
    check_numerical_contraction(numerical_radius(F, cfg), cfg)
    return _peel_unitary(F, cfg)


def _peel_unitary(F: np.ndarray, cfg: Tolerances) -> CnuDecomposition:
    """The peeling of :func:`cnu_decompose` for a certified numerical contraction F."""
    n = F.shape[0]
    transform = np.eye(n, dtype=complex)
    block = F.copy()
    peeled: list[tuple[complex, int]] = []
    while block.shape[0]:
        scale = max(np.linalg.norm(block), 1.0)
        reps = _unimodular_reps(spectrum(block, cfg), scale, cfg)
        if not reps:
            break
        beta = reps[0]
        basis = _joint_eigenspace(block, beta, cfg)
        if not basis:
            raise NumericalError(
                f"unimodular eigenvalue {beta:.6f} has no reducing eigenvector")
        Q = np.column_stack(basis)
        m = Q.shape[1]
        rest = _orthogonal_complement(Q)
        W = np.hstack([rest, Q])  # keep c.n.u. candidates in the leading block
        block_new = W.conj().T @ block @ W
        off = np.linalg.norm(block_new[: block.shape[0] - m, block.shape[0] - m:]) + \
            np.linalg.norm(block_new[block.shape[0] - m:, : block.shape[0] - m])
        if off > _REDUCED * scale:
            raise NumericalError("joint eigenspace failed to reduce the matrix")
        transform = transform @ _embed_tail(W, n)
        peeled.append((complex(beta), m))
        block = block_new[: block.shape[0] - m, : block.shape[0] - m]
    # assemble with the unitary part leading, per the decomposition convention
    k = block.shape[0]
    perm = np.zeros((n, n), dtype=complex)
    perm[:, :n - k] = np.eye(n)[:, k:]
    perm[:, n - k:] = np.eye(n)[:, :k]
    transform = transform @ perm
    dec = CnuDecomposition(transform, tuple(reversed(peeled)), block)
    _check_reassembly(F, dec)
    return dec


def _embed_tail(W: np.ndarray, n: int) -> np.ndarray:
    """Embed a k x k unitary into the leading k coordinates of C^n."""
    k = W.shape[0]
    out = np.eye(n, dtype=complex)
    out[:k, :k] = W
    return out


def _check_reassembly(F: np.ndarray, dec: CnuDecomposition) -> None:
    n = F.shape[0]
    blocks = [beta * np.eye(m, dtype=complex) for beta, m in dec.unitary_eigenvalues]
    blocks.append(dec.cnu_block)
    D = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        D[at:at + k, at:at + k] = b
        at += k
    err = np.linalg.norm(dec.transform @ D @ dec.transform.conj().T - F)
    if err > _REDUCED * max(1.0, np.linalg.norm(F)):
        raise NumericalError(f"c.n.u. decomposition reassembly residual {err:.3e}")


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
    """Search sums of unimodular joint eigenspaces of PU + U*(I-P) for a witness.

    Enumerates subspaces spanned by subsets of the computed joint eigenvectors
    only; this suffices at desk scale but is not a complete reducing-subspace
    search.  Returns an orthonormal witness basis, or None.  The search reads
    only the unimodular eigenstructure of T, so it does not repeat the
    numerical-radius audit of :func:`pu_compress`.
    """
    from itertools import combinations

    T = _pu_matrix(P, U, cfg)
    scale = max(np.linalg.norm(T), 1.0)
    basis: list[np.ndarray] = []
    for ev in _unimodular_reps(spectrum(T, cfg), scale, cfg):
        basis.extend(_joint_eigenspace(T, ev, cfg))
    for r in range(1, len(basis) + 1):
        for comb in combinations(range(len(basis)), r):
            cand = [basis[i] for i in comb]
            Q = _col_basis(np.column_stack(cand), cfg)
            cand_on = [Q[:, j] for j in range(Q.shape[1])]
            if cand_on and verify_pu_reducing(P, U, cand_on, cfg):
                return cand_on
    return None
