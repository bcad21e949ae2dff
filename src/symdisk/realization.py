"""Realization formula for rational inner functions on the domain.

A model is a unitary tau together with a unitary block matrix [[A, B], [C, D]];
it evaluates as

    Psi(s, p) = A + B phi(tau, s, p) (I - D phi(tau, s, p))^{-1} C

with phi = N P^{-1} the operator-valued rational map of the domain, where
P = 2I - s tau and N = 2p tau - sI commute.  So Psi = A + (2p B tau - s B) T^{-1} C
with the pencil T = P - D N = (I - D phi) P = 2I + s(D - tau) - 2p D tau,
one factorization per point.  Unitarity of the blocks forces Psi inner: the
defect I - Psi* Psi equals

    C* (I - phi* D*)^{-1} (I - phi* phi) (I - D phi)^{-1} C,

which vanishes on the distinguished boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .gamma import _pencil_check, phi_operator
from .linalg import any_singular, as_complex_matrix, solve_stack

# slack of the Frobenius screen in boundary_unitarity_audit: the computed
# ||X||_F and SVD ||X||_2 carry relative errors of a few d*eps, far below 1e-10
_SCREEN_SLACK = 1e-10
# and its absolute part: squares below ~1e-308 underflow, which moves a
# computed ||X||_F by at most about d*1e-162
_SCREEN_FLOOR = 1e-150
# T = (I - D phi)(2I - s tau) counts as singular (then exactly when I - D phi
# is, 2I - s tau having passed its check) where sigma_min <= this multiple of
# max(sigma_max, 1): a condition of 1e12 or more, where rounding alone moves
# T^{-1} C by about 1e12*eps = 2e-4, far above tol_id and tol_inner
_SINGULAR_TRANSFER = 1e-12
# matrix entries per stacked call of boundary_unitarity_audit: a 1 x 1 model
# takes its whole half grid in one call, while an 8 x 8 one stays at a few MB
# of temporaries (its full 64 x 64 grid in one stack added 28 MB peak RSS)
_AUDIT_BLOCK_ENTRIES = 2 ** 14


@dataclass(frozen=True)
class RealizationModel:
    """State-space data (tau, A, B, C, D) of a rational inner function."""
    tau: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("tau", "A", "B", "C", "D"):
            object.__setattr__(self, name, as_complex_matrix(getattr(self, name)))
        d, h = self.A.shape[0], self.tau.shape[0]
        if self.A.shape != (d, d) or self.B.shape != (d, h) or \
                self.C.shape != (h, d) or self.D.shape != (h, h) or \
                self.tau.shape != (h, h):
            raise InputError("inconsistent block shapes in realization model")

    @property
    def block(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.C, self.D]])

    @functools.cached_property
    def tau_norm(self) -> float:
        """||tau||_2, taken once per model for every pencil check."""
        return float(np.linalg.norm(self.tau, 2))

    @functools.cached_property
    def _pencil_terms(self) -> tuple[np.ndarray, ...]:
        """tau, D - tau, D tau, A, B, B tau and [C | I] with a stack axis, as in
        phi_operator: a one-point call then gives the bits of a stack entry."""
        return tuple(M[None] for M in (
            self.tau, self.D - self.tau, self.D @ self.tau, self.A, self.B,
            self.B @ self.tau, np.hstack([self.C, np.eye(len(self.C))])))

    def validate(self, cfg: Tolerances = DEFAULT) -> None:
        """Raise unless tau and the block are unitary to tol_op (a nan defect fails)."""
        h = self.tau.shape[0]
        if not np.linalg.norm(self.tau.conj().T @ self.tau - np.eye(h)) <= cfg.tol_op:
            raise InputError("tau is not unitary to tolerance")
        U = self.block
        if not np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) <= cfg.tol_op:
            raise InputError("realization block matrix is not unitary to tolerance")


def _transfer(m: RealizationModel, s, p, cfg: Tolerances):
    """X = T^{-1} C and Psi = A + (2p B tau - s B) X, stacked over the points
    of the equal-length sequences ``s`` and ``p``.

    After the check of 2I - s tau, one solve T^{-1} [C | I] gives X and the
    inverse, from which :func:`symdisk.linalg.any_singular` decides whether T
    is singular, sigma_min <= _SINGULAR_TRANSFER * max(sigma_max, 1).
    """
    s = np.asarray(s, dtype=complex)[:, None, None]
    p = np.asarray(p, dtype=complex)[:, None, None]
    tau, d_minus_tau, d_tau, A, B, b_tau, c_eye = m._pencil_terms
    _pencil_check(tau, s, m.tau_norm, cfg)
    h, d = m.C.shape
    T = 2.0 * np.eye(h)[None] + s * d_minus_tau - 2.0 * p * d_tau
    X = solve_stack(T, np.broadcast_to(c_eye, (len(T), h, d + h)))
    if any_singular(T, X[:, :, d:], _SINGULAR_TRANSFER):
        raise NumericalError("I - D phi is singular at the requested point")
    # contiguous: numpy multiplies a strided (h, 1) view in a loop that moves Psi's last bits
    X = np.ascontiguousarray(X[:, :, :d])
    return X, A + (2.0 * p * b_tau - s * B) @ X


def eval_model(m: RealizationModel, s, p, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Psi(s_k, p_k) = A + B phi (I - D phi)^{-1} C at each point, stacked.

    ``s`` and ``p`` are equal-length sequences of point coordinates.  The
    model is validated first.
    """
    m.validate(cfg)
    return _transfer(m, s, p, cfg)[1]


def inner_defect(m: RealizationModel, s, p, cfg: Tolerances = DEFAULT):
    """Both computations of I - Psi* Psi at each point, stacked; they must agree to tol_id.

    ``s`` and ``p`` are equal-length sequences of point coordinates.  The
    second form is the algebraic identity available for unitary models, so a
    mismatch flags an inconsistent model (e.g. a perturbed block); the first
    point that misses tol_id is reported.  It takes phi from phi_operator and
    (I - D phi)^{-1} C as (2I - s tau) T^{-1} C.
    """
    X, psi = _transfer(m, s, p, cfg)
    phi = phi_operator(m.tau, s, p, cfg, tau_norm=m.tau_norm)
    tau = m._pencil_terms[0]
    inv = (2.0 * np.eye(tau.shape[1])[None] - np.asarray(s, complex)[:, None, None] * tau) @ X
    direct = np.eye(m.A.shape[0]) - psi.conj().transpose(0, 2, 1) @ psi
    middle = np.eye(phi.shape[1]) - phi.conj().transpose(0, 2, 1) @ phi
    identity_form = inv.conj().transpose(0, 2, 1) @ middle @ inv
    for a, b in zip(direct, identity_form):
        mismatch = np.linalg.norm(a - b)
        if not mismatch <= cfg.tol_id:
            raise NumericalError(f"inner-defect mismatch {mismatch:.3e}: model is inconsistent")
    return direct, identity_form


def _screened_max(m: RealizationModel, rows, worst: float, cfg: Tolerances) -> float:
    """worst raised to the largest ||I - Psi* Psi||_2 over the points of the
    (s, p) rows, stacked in one call; nan when a defect there is not finite."""
    psi = _transfer(m, np.concatenate([s for s, _ in rows]),
                    np.concatenate([p for _, p in rows]), cfg)[1]
    defect = np.eye(m.A.shape[0]) - psi.conj().transpose(0, 2, 1) @ psi
    fro = np.linalg.norm(defect, axis=(1, 2))
    if not np.isfinite(fro).all():
        return float("nan")
    # seeded at the largest Frobenius norm, the screen skips points from the first stack on
    top = int(np.argmax(fro))
    worst = max(worst, float(np.linalg.svd(defect[top], compute_uv=False)[0]))
    reach = fro * (1.0 + _SCREEN_SLACK) + _SCREEN_FLOOR >= worst
    reach[top] = False
    if reach.any():
        worst = max(worst, float(np.linalg.svd(defect[reach], compute_uv=False)[:, 0].max()))
    return worst


def boundary_unitarity_audit(m: RealizationModel, n_per_axis: int = 64,
                             cfg: Tolerances = DEFAULT) -> float:
    """Max of ||I - Psi* Psi|| over a midpoint grid on the distinguished boundary.

    The grid is offset by half a step so torus corners (potential pencil
    singularities, e.g. s = 2 for tau = [1]) are never sampled exactly.  Both
    axes are the same points, and CPython's complex z1 + z2 and z1 * z2 do
    not depend on the order, so (z1, z2) and (z2, z1) give the same (s, p)
    bits: only the triangle z2 >= z1 is evaluated, n(n + 1)/2 points, its rows
    stacked in order into calls of about _AUDIT_BLOCK_ENTRIES matrix entries.
    Since ||X||_2 <= ||X||_F, the SVD 2-norm runs only on the points whose
    Frobenius norm reaches the running maximum; the others cannot raise it.
    A non-finite defect is returned as nan, never as a pass.  Triangle row a
    holds the points that a row-by-row pass over the full grid first meets in
    its row a, and a stack that raises is re-run one row at a time, so the
    first row with a non-finite defect (nan) or a singular pencil 2I - s tau
    or T (raise) decides, as in that pass.  The model is not validated
    here: a non-unitary block simply shows up as a large defect, which is the
    audit's verdict to report.  An empty grid (n_per_axis < 1) is an InputError.
    """
    if n_per_axis < 1:
        raise InputError(f"the boundary grid needs n_per_axis >= 1, got {n_per_axis}")
    torus = [complex(np.exp(1j * (2 * np.pi * (k + 0.5) / n_per_axis)))
             for k in range(n_per_axis)]
    block = max(1, _AUDIT_BLOCK_ENTRIES // (m.A.shape[0] + m.tau.shape[0]) ** 2)
    stacks = []
    for a, z1 in enumerate(torus):
        if not stacks or sum(len(s) for s, _ in stacks[-1]) >= block:
            stacks.append([])
        stacks[-1].append((np.array([z1 + z2 for z2 in torus[a:]]),
                           np.array([z1 * z2 for z2 in torus[a:]])))
    worst = 0.0
    for stack in stacks:
        try:
            worst = _screened_max(m, stack, worst, cfg)
        except (InputError, NumericalError, np.linalg.LinAlgError):
            if len(stack) == 1:
                raise
            # one row at a time, so the first failing row decides
            for row in stack:
                worst = _screened_max(m, [row], worst, cfg)
                if np.isnan(worst):
                    break
        if np.isnan(worst):
            break
    return worst
