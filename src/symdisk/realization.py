"""Realization formula for rational inner functions on the domain.

A model is a unitary tau together with a unitary block matrix [[A, B], [C, D]];
it evaluates as

    Psi(s, p) = A + B phi(tau, s, p) (I - D phi(tau, s, p))^{-1} C

with phi the operator-valued rational map of the domain.  Unitarity of the
blocks forces Psi inner: the defect I - Psi* Psi equals

    C* (I - phi* D*)^{-1} (I - phi* phi) (I - D phi)^{-1} C,

which vanishes on the distinguished boundary.  Interpolants are produced from
certified node data by a lurking-isometry completion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .gamma import GammaPoint, phi_operators
from .linalg import as_complex_matrix, complete_to_unitary
from .pick import PickData

# slack of the Frobenius screen in boundary_unitarity_audit: the computed
# ||X||_F and SVD ||X||_2 carry relative errors of a few d*eps, far below 1e-10
_SCREEN_SLACK = 1e-10
# and its absolute part: squares below ~1e-308 underflow, which moves a
# computed ||X||_F by at most about d*1e-162
_SCREEN_FLOOR = 1e-150
# I - D phi counts as singular where sigma_min <= this multiple of
# max(sigma_max, 1): a condition of 1e12 or more, where rounding alone moves
# (I - D phi)^{-1} C by about 1e12*eps = 2e-4, far above tol_id and tol_inner
_SINGULAR_TRANSFER = 1e-12
# margin of the inverse screen of that rule: where cond(I - D phi) <= 1e6 the
# computed inverse carries a relative error of about h * 1e6 * eps, far inside
# the 1e6 gap between this margin and the 1e-12 rule
_TRANSFER_MARGIN = 1e-6
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
        """||tau||_2, taken once per model for every phi_operators call."""
        return float(np.linalg.norm(self.tau, 2))

    def validate(self, cfg: Tolerances = DEFAULT) -> None:
        """Raise unless tau and the block are unitary to tol_op (a nan defect fails)."""
        h = self.tau.shape[0]
        if not np.linalg.norm(self.tau.conj().T @ self.tau - np.eye(h)) <= cfg.tol_op:
            raise InputError("tau is not unitary to tolerance")
        U = self.block
        if not np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) <= cfg.tol_op:
            raise InputError("realization block matrix is not unitary to tolerance")


def _transfer(m: RealizationModel, s, p, cfg: Tolerances):
    """phi, (I - D phi)^{-1} C and Psi = A + B phi (I - D phi)^{-1} C, stacked.

    ``s`` and ``p`` are equal-length sequences of point coordinates; each
    result has one leading axis over the points.  I - D phi is singular when
    sigma_min <= _SINGULAR_TRANSFER * max(sigma_max, 1); since
    sigma_min >= 1 / ||(I - D phi)^{-1}||_F and sigma_max <= ||I - D phi||_F,
    the SVD runs only on the points where that bound does not clear the
    threshold by a wide margin.
    """
    phi = phi_operators(m.tau, s, p, cfg, tau_norm=m.tau_norm)
    h, d = m.C.shape
    M = np.eye(h) - m.D @ phi
    # one factorization per point gives both (I - D phi)^{-1} C and the inverse;
    # written so that a non-finite M, or a norm that overflows, stays undecided
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            X = np.linalg.solve(M, np.broadcast_to(np.hstack([m.C, np.eye(h)]),
                                                   (len(M), h, d + h)))
            undecided = ~(1.0 > _TRANSFER_MARGIN
                          * np.maximum(np.linalg.norm(M, axis=(1, 2)), 1.0)
                          * np.linalg.norm(X[:, :, d:], axis=(1, 2)))
        except np.linalg.LinAlgError:
            # an exactly singular member: the whole stack goes to the SVD
            X = None
            undecided = np.ones(len(M), dtype=bool)
    if undecided.any():
        sv = np.linalg.svd(M[undecided], compute_uv=False)
        if X is None or np.any(sv[:, -1] <= _SINGULAR_TRANSFER * np.maximum(sv[:, 0], 1.0)):
            raise NumericalError("I - D phi is singular at the requested point")
    # contiguous: numpy multiplies a strided (h, 1) view in a loop that moves Psi's last bits
    inv = np.ascontiguousarray(X[:, :, :d])
    return phi, inv, m.A + m.B @ phi @ inv


def eval_model(m: RealizationModel, x: GammaPoint, cfg: Tolerances = DEFAULT,
               validate: bool = True) -> np.ndarray:
    """Psi(x) = A + B phi (I - D phi)^{-1} C."""
    if validate:
        m.validate(cfg)
    return _transfer(m, [x.s], [x.p], cfg)[2][0]


def inner_defects(m: RealizationModel, s, p, cfg: Tolerances = DEFAULT):
    """Both computations of I - Psi* Psi at each point, stacked; they must agree to tol_id.

    ``s`` and ``p`` are equal-length sequences of point coordinates.  The
    second form is the algebraic identity available for unitary models, so a
    mismatch flags an inconsistent model (e.g. a perturbed block); the first
    point that misses tol_id is reported.
    """
    phi, inv, psi = _transfer(m, s, p, cfg)
    direct = np.eye(m.A.shape[0]) - psi.conj().transpose(0, 2, 1) @ psi
    middle = np.eye(phi.shape[1]) - phi.conj().transpose(0, 2, 1) @ phi
    identity_form = inv.conj().transpose(0, 2, 1) @ middle @ inv
    for a, b in zip(direct, identity_form):
        mismatch = np.linalg.norm(a - b)
        if not mismatch <= cfg.tol_id:
            raise NumericalError(f"inner-defect mismatch {mismatch:.3e}: model is inconsistent")
    return direct, identity_form


def inner_defect(m: RealizationModel, x: GammaPoint, cfg: Tolerances = DEFAULT):
    """Both computations of I - Psi(x)* Psi(x); see :func:`inner_defects`."""
    direct, identity_form = inner_defects(m, [x.s], [x.p], cfg)
    return direct[0], identity_form[0]


def _screened_max(m: RealizationModel, rows, worst: float, cfg: Tolerances) -> float:
    """worst raised to the largest ||I - Psi* Psi||_2 over the points of the
    (s, p) rows, stacked in one call; nan when a defect there is not finite."""
    psi = _transfer(m, np.concatenate([s for s, _ in rows]),
                    np.concatenate([p for _, p in rows]), cfg)[2]
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
    first row with a non-finite defect (nan) or a singular pencil or
    I - D phi (raise) decides, as in that pass.  The model is not validated
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


def lurking_isometry_interpolant(tau, f_values, data, targets=None,
                                 cfg: Tolerances = DEFAULT) -> RealizationModel:
    """Build an interpolating model from certified (tau, F-value) data.

    ``data`` is a PickData (scalar targets), or a node list when matrix
    ``targets`` are passed separately.  The solvability certificate

        I + F_i* phi_i* phi_j F_j = M_i* M_j + F_i* F_j

    is checked on all node pairs; the isometry [I; phi_j F_j] xi -> [M_j; F_j] xi
    is completed to the unitary block, and the resulting model is verified to
    reproduce the targets.
    """
    tau = as_complex_matrix(tau, square=True)
    if isinstance(data, PickData):
        nodes = list(data.nodes)
        mats = [np.array([[w]], dtype=complex) for w in data.targets]
    else:
        if targets is None:
            raise InputError("matrix targets required when data is a node list")
        nodes = [GammaPoint(complex(x.s), complex(x.p)) for x in data]
        mats = [as_complex_matrix(M, square=True) for M in targets]
    if len(nodes) != len(mats) or not nodes:
        raise InputError("node and target counts differ or are empty")
    d = mats[0].shape[0]
    h = tau.shape[0]
    fvals = []
    for F in f_values:
        F = np.asarray(F, dtype=complex)
        if F.ndim == 1:
            F = F.reshape(h, -1)
        if F.shape != (h, d):
            raise InputError(f"F-value shape {F.shape} does not match ({h}, {d})")
        fvals.append(F)
    if len(fvals) != len(nodes):
        raise InputError("one F-value per node is required")

    phis = phi_operators(tau, [x.s for x in nodes], [x.p for x in nodes], cfg)
    doms, rans = [], []
    for j, x in enumerate(nodes):
        X = np.vstack([np.eye(d, dtype=complex), phis[j] @ fvals[j]])
        Y = np.vstack([mats[j], fvals[j]])
        doms.extend(X[:, c] for c in range(d))
        rans.extend(Y[:, c] for c in range(d))
    Xm = np.column_stack(doms)
    Ym = np.column_stack(rans)
    gx = Xm.conj().T @ Xm
    gy = Ym.conj().T @ Ym
    if np.linalg.norm(gx - gy) > cfg.tol_gram * max(1.0, np.linalg.norm(gx)):
        raise InputError("solvability certificate violated: "
                         "the lurking-isometry Gram identity fails")
    U = complete_to_unitary(doms, rans, dim=d + h, cfg=cfg)
    model = RealizationModel(tau, U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:])
    model.validate(cfg)
    for j, x in enumerate(nodes):
        err = np.linalg.norm(eval_model(model, x, cfg, validate=False) - mats[j])
        if err > cfg.tol_interp:
            raise NumericalError(f"model misses node {j} by {err:.3e}")
    return model
