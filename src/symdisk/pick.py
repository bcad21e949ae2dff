"""Pick interpolation data and the admissible-kernel machinery.

A Pick matrix pairs a datum with a kernel: [(1 - w_i conj(w_j)) k_ij].  An
admissible kernel makes the coordinate multiplication pair on its span a
Gamma-contraction; the fundamental operator of that pair drives the kernel
extension pipeline in :mod:`symdisk.extend`.  Admissibility is audited, not
proved: norm bounds, the numerical radius of the fundamental operator, and the
closed-form residuals that the dilation isometry and its intertwining
relations telescope to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .gamma import REGIONS, GammaPoint, Region, classify_region, coincident
from .linalg import as_complex_matrix, hermitian_part, psd_eigh
from .numrange import numerical_radius

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PickData:
    """Interpolation nodes in the open domain with unit-disk targets."""
    nodes: tuple
    targets: tuple
    cfg: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(GammaPoint(complex(x.s), complex(x.p)) for x in self.nodes)
        targets = tuple(complex(w) for w in self.targets)
        if len(nodes) != len(targets):
            raise InputError("nodes and targets must have equal length")
        if not nodes:
            raise InputError("empty Pick datum")
        cfg = self.cfg
        s = [x.s for x in nodes]
        p = [x.p for x in nodes]
        pairs = np.argwhere(np.triu(coincident(s, p, s, p, cfg.tol_node), 1))
        if len(pairs):
            i, j = pairs[0]
            raise InputError(f"nodes {i} and {j} coincide")
        outside = np.flatnonzero(classify_region(s, p, cfg) != REGIONS.index(Region.OPEN_G))
        if len(outside):
            x = nodes[outside[0]]
            raise InputError(f"node {outside[0]} = ({x.s}, {x.p}) is not in the open domain")
        for i, w in enumerate(targets):
            # 1e-14, about 45 ulps: a unimodular target read back from JSON
            if abs(w) > 1.0 + 1e-14:
                raise InputError(f"target {i} has modulus {abs(w):.6f} > 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class KernelMatrix:
    """A kernel's Gram matrix on a node list (Hermitian PSD, positive diagonal)."""
    nodes: tuple
    gram: np.ndarray
    cfg: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(GammaPoint(complex(x.s), complex(x.p)) for x in self.nodes)
        G = as_complex_matrix(self.gram, square=True)
        if G.shape[0] != len(nodes):
            raise InputError("gram dimension does not match the node count")
        vals = np.linalg.eigvalsh(hermitian_part(G, self.cfg, "gram matrix"))
        if len(vals) and vals[0] < -self.cfg.tol_psd * max(np.linalg.norm(G), 1.0):
            raise InputError(f"gram matrix is not PSD: min eigenvalue {vals[0]:.3e}")
        if np.any(G.diagonal().real <= 0):
            raise InputError("kernel diagonal entries must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "gram", G)

    def __len__(self) -> int:
        return len(self.nodes)


def gram_on_nodes(data: PickData, k, cfg: Tolerances = DEFAULT) -> KernelMatrix:
    """The Gram matrix k(s, p) of a kernel over the datum's nodes, as a KernelMatrix."""
    s = np.array([x.s for x in data.nodes])
    p = np.array([x.p for x in data.nodes])
    return KernelMatrix(data.nodes, hermitian_part(k(s, p), cfg, "kernel on the nodes"), cfg)


def pick_matrix(data: PickData, K: KernelMatrix) -> np.ndarray:
    """The matrix [(1 - w_i conj(w_j)) K_ij] of a datum and its kernel's Gram matrix."""
    w = np.array(data.targets)
    return (1.0 - np.outer(w, w.conj())) * K.gram


@dataclass(frozen=True)
class PsdReport:
    """Minimum eigenvalue, plus a unit null vector when (near) singular."""
    min_eigenvalue: float
    null_vector: np.ndarray | None


def psd_report(M, cfg: Tolerances = DEFAULT, *, kernel_diag=None) -> PsdReport:
    """Smallest eigenvalue of a Hermitian matrix and a null vector if active.

    For a Pick matrix pass ``kernel_diag`` = (k_ii > 0): activity is decided on
    S = [P_ij / sqrt(k_ii k_jj)] (van der Sluis scaling, Higham, *Accuracy and
    Stability*, 7.3), blind to the scale of each kernel function but not to
    that of the targets.  Without it, S = M.  "Active" means lambda_min(S) <=
    tol_active * max(||S||, 1); the null vector is S's, mapped back by
    diag(k)^{-1/2} and normalized.  The reported eigenvalue is M's own.

    Roundoff in M does not move it: when the active eigenvectors span N with
    dim N >= 2 it is Pi e_k, Pi = N N* and k its largest diagonal entry, and
    its first entry of modulus >= half the largest is made real positive.
    """
    H = hermitian_part(M, cfg)
    d = np.ones(len(H)) if kernel_diag is None else np.sqrt(np.asarray(kernel_diag).real)
    S = H / np.outer(d, d)
    vals, vecs = np.linalg.eigh(S)
    N = vecs[:, vals <= cfg.tol_active * max(np.linalg.norm(S), 1.0)]
    gamma = None
    if N.shape[1]:
        if N.shape[1] > 1:
            N = N @ N[np.argmax(np.linalg.norm(N, axis=1))].conj()[:, None]
        gamma = N[:, 0] / d
        gamma = gamma / np.linalg.norm(gamma)
        pivot = gamma[np.argmax(np.abs(gamma) >= 0.5 * np.abs(gamma).max())]
        # a real pivot flips sign exactly: conj(pivot) / |pivot| can be 1 ulp off -1
        gamma = gamma * (np.sign(pivot.real) if pivot.imag == 0 else np.conj(pivot) / abs(pivot))
    return PsdReport(float(np.linalg.eigvalsh(H)[0]), gamma)


@dataclass(frozen=True)
class KernelBasisOperators:
    """Multiplication pair on the kernel span, in an orthonormalized basis.

    ``range_dim`` is the numerical rank of the Gram matrix; all operators are
    range_dim x range_dim.  ``D = U diag(sigma) U*`` with ``sigma`` descending.
    ``coord_vectors[j]`` holds the coordinates of the j-th kernel function.
    """
    Ms: np.ndarray
    Mp: np.ndarray
    D: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    coord_vectors: tuple
    range_dim: int


def kernel_basis_operators(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> KernelBasisOperators:
    """Represent M_s*, M_p* (diagonal on kernel functions) orthonormally, and D.

    With Gram G = W L W* (numerical rank r), the adjoint multiplications are
    L^{1/2} W* diag(conj(c_j)) W L^{-1/2} on C^r.  When G is rank deficient the
    diagonal action must preserve ker(G), otherwise the kernel functions fail
    to distinguish nodes with different coordinates.

    D = (I - Mp Mp*)^{1/2} comes from a factor, not from that difference (which
    cancels to roundoff times cond(G) on close nodes): Q = [(1 - p_i conj(p_j))
    G_ij], the Gram of D on the kernel functions, is R R*, so X = L^{-1/2} W* R
    has X X* = D^2, and its SVD U Sigma V* gives D = U Sigma U*.
    """
    G = K.gram
    n = len(K)
    s = np.array([x.s for x in K.nodes])
    p = np.array([x.p for x in K.nodes])
    vals, vecs = np.linalg.eigh((G + G.conj().T) / 2)
    vmax = max(vals.max(), _EPS) if n else _EPS
    keep = vals > cfg.rank_tol * vmax
    r = int(np.sum(keep))
    W = vecs[:, keep]
    lam = vals[keep]
    if r < n:
        null = vecs[:, ~keep]
        for diag in (np.diag(p.conj()), np.diag(s.conj())):
            leak = np.linalg.norm(G @ diag @ null)
            if leak > cfg.tol_ext * max(np.linalg.norm(G), 1.0):
                raise InputError("kernel functions do not distinguish the nodes")
    half = np.sqrt(lam)
    Ms_star = (W * half).conj().T @ np.diag(s.conj()) @ (W / half)
    Mp_star = (W * half).conj().T @ np.diag(p.conj()) @ (W / half)
    Q = (1.0 - np.outer(p, p.conj())) * G
    qvals, qvecs = psd_eigh(Q, cfg)
    U, sigma, _ = np.linalg.svd((W / half).conj().T @ (qvecs * np.sqrt(qvals)),
                                full_matrices=False)
    coords = tuple((W * half).conj().T[:, j] for j in range(n))
    return KernelBasisOperators(Ms_star.conj().T, Mp_star.conj().T,
                                (U * sigma) @ U.conj().T, U, sigma, coords, r)


@dataclass(frozen=True)
class _FundamentalModel:
    """Internal bundle shared by the fundamental operator and the audit."""
    ops: KernelBasisOperators
    F: np.ndarray             # pseudo-inverse solution, zero on ker(D)
    D: np.ndarray             # ops.D cut to its numerical range: the D that F solves against
    residual: float
    mp_norm: float            # checked <= 1 + tol_op on construction
    ms_norm: float            # checked <= 2 + tol_op on construction


def _fundamental_model(K: KernelMatrix, cfg: Tolerances) -> _FundamentalModel:
    ops = kernel_basis_operators(K, cfg)
    ms_norm = float(np.linalg.norm(ops.Ms, 2))
    mp_norm = float(np.linalg.norm(ops.Mp, 2))
    if mp_norm > 1.0 + cfg.tol_op:
        raise InputError(f"||Mp|| = {mp_norm:.9f} > 1: kernel is not admissible")
    if ms_norm > 2.0 + cfg.tol_op:
        raise InputError(f"||Ms|| = {ms_norm:.9f} > 2: kernel is not admissible")
    S = ops.Ms.conj().T - ops.Ms @ ops.Mp.conj().T
    # rank-decide on the D^2 scale: a roundoff-level eigenvalue of D^2 is a null
    # direction of D, and dividing by its root would blow noise in S up to O(1)
    d2 = ops.sigma ** 2
    keep = d2 > cfg.rank_tol * max(d2[0] if len(d2) else _EPS, _EPS)
    Vd = ops.U[:, keep]
    dv = ops.sigma[keep]
    F = Vd @ ((Vd.conj().T @ S @ Vd) / np.outer(dv, dv)) @ Vd.conj().T
    D = (Vd * dv) @ Vd.conj().T
    residual = float(np.linalg.norm(D @ F @ D - S))
    # a floor of 1e-13 (about 450 ulps) where Ms is roundoff (nodes on s = 0)
    tol = cfg.tol_fund_rel * ms_norm + 1e-13
    if residual > tol:
        raise NumericalError(
            f"fundamental equation residual {residual:.3e} exceeds {tol:.3e}: "
            "kernel is not Gamma-consistent")
    return _FundamentalModel(ops, F, D, residual, mp_norm, ms_norm)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility audit of a kernel."""
    passed: bool
    failures: tuple
    mp_norm: float
    ms_norm: float
    nu_fundamental: float
    fundamental_residual: float
    isometry_defect: float
    intertwine_s: float
    commutator: float


def admissibility_audit(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> AdmissibilityReport:
    """Audit the necessary conditions for admissibility of a kernel.

    The norm bounds ||Mp|| <= 1, ||Ms|| <= 2 are enforced (InputError) when the
    fundamental operator F' is built.  The audit checks nu(F') <= 1 and three
    closed-form residuals against tol_dil, to which the dilation
    Pi h = (D h, D Mp* h, D Mp*^2 h, ...) and its intertwinings telescope; D is
    cut to the numerical range that F' is solved on:

    * ``isometry_defect`` = ||E||, E = D^2 - (I - Mp Mp*): Pi* Pi - I is
      sum_n Mp^n E Mp*^n, as sum_n Mp^n (I - Mp Mp*) Mp*^n telescopes;
    * ``intertwine_s`` = ||R||, R = D Ms* - F' D - F'* D Mp*: when Ms* and Mp*
      commute, the n-th intertwining residual of Ms* is R Mp*^n;
    * ``commutator`` = ||[Ms, Mp]||, which that reduction needs.

    A PASS is evidence, not a proof.
    """
    return _audit_model(_fundamental_model(K, cfg), cfg)


def _audit_model(model: _FundamentalModel, cfg: Tolerances) -> AdmissibilityReport:
    """The audit of :func:`admissibility_audit` on a prebuilt fundamental model."""
    failures = []
    ops = model.ops
    nu_f = float(numerical_radius(model.F, cfg))
    if nu_f > 1.0 + cfg.tol_nu:
        failures.append("fundamental_numerical_radius")
    D, F = model.D, model.F
    Mp_star = ops.Mp.conj().T
    iso = float(np.linalg.norm(D @ D - np.eye(ops.range_dim) + ops.Mp @ Mp_star))
    inter = float(np.linalg.norm(D @ ops.Ms.conj().T - F @ D - F.conj().T @ D @ Mp_star))
    comm = float(np.linalg.norm(ops.Ms @ ops.Mp - ops.Mp @ ops.Ms))
    for name, value in (("dilation_isometry", iso), ("intertwining_s", inter),
                        ("commutator", comm)):
        if value > cfg.tol_dil:
            failures.append(name)
    return AdmissibilityReport(
        passed=not failures,
        failures=tuple(failures),
        mp_norm=model.mp_norm,
        ms_norm=model.ms_norm,
        nu_fundamental=nu_f,
        fundamental_residual=model.residual,
        isometry_defect=iso,
        intertwine_s=inter,
        commutator=comm,
    )
