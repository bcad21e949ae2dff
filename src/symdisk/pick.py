"""Pick interpolation data and the admissible-kernel machinery.

A Pick matrix pairs a datum with a kernel: [(1 - w_i conj(w_j)) k_ij].  An
admissible kernel makes the coordinate multiplication pair on its span a
Gamma-contraction; the fundamental operator of that pair drives the kernel
extension pipeline in :mod:`symdisk.extend`.  Admissibility is audited, not
proved: norm bounds, the numerical radius of the fundamental operator, and a
truncated dilation isometry with its intertwining relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError, NumericalError
from .gamma import GammaPoint, Region, classify_region
from .linalg import as_complex_matrix, hermitian_part, psd_sqrt
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
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                sep = abs(nodes[i].s - nodes[j].s) + abs(nodes[i].p - nodes[j].p)
                if sep <= cfg.tol_node:
                    raise InputError(f"nodes {i} and {j} coincide")
        for i, x in enumerate(nodes):
            if classify_region(x, cfg=cfg) is not Region.OPEN_G:
                raise InputError(f"node {i} = ({x.s}, {x.p}) is not in the open domain")
        for i, w in enumerate(targets):
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
    """Evaluate a kernel on the datum's nodes into a KernelMatrix."""
    n = len(data)
    G = np.array([[k(data.nodes[i], data.nodes[j]) for j in range(n)]
                  for i in range(n)], dtype=complex)
    return KernelMatrix(data.nodes, hermitian_part(G, cfg, "kernel on the nodes"), cfg)


def pick_matrix(data: PickData, k, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """The matrix [(1 - w_i conj(w_j)) k(node_i, node_j)]."""
    if isinstance(k, KernelMatrix):
        G = k.gram
    else:
        G = gram_on_nodes(data, k, cfg).gram
    w = np.array(data.targets)
    return (1.0 - np.outer(w, w.conj())) * G


@dataclass(frozen=True)
class PsdReport:
    """Minimum eigenvalue, plus a unit null vector when (near) singular."""
    min_eigenvalue: float
    null_vector: np.ndarray | None


def psd_report(M, cfg: Tolerances = DEFAULT) -> PsdReport:
    """Smallest eigenvalue of a Hermitian matrix and a null vector if active."""
    M = as_complex_matrix(M, square=True)
    scale = max(np.linalg.norm(M), 1.0)
    vals, vecs = np.linalg.eigh(hermitian_part(M, cfg))
    min_eig = float(vals[0])
    gamma = None
    if min_eig <= cfg.tol_active * scale:
        gamma = vecs[:, 0]
        gamma = gamma / np.linalg.norm(gamma)
    return PsdReport(min_eig, gamma)


@dataclass(frozen=True)
class KernelBasisOperators:
    """Multiplication pair on the kernel span, in an orthonormalized basis.

    ``range_dim`` is the numerical rank of the Gram matrix; all operators are
    range_dim x range_dim.  ``coord_vectors[j]`` holds the coordinates of the
    j-th kernel function.
    """
    Ms: np.ndarray
    Mp: np.ndarray
    D: np.ndarray
    coord_vectors: tuple
    range_dim: int


def kernel_basis_operators(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> KernelBasisOperators:
    """Represent M_s*, M_p* (diagonal on kernel functions) orthonormally.

    With Gram G = W L W* (numerical rank r), the adjoint multiplications are
    L^{1/2} W* diag(conj(c_j)) W L^{-1/2} on C^r.  When G is rank deficient the
    diagonal action must preserve ker(G), otherwise the kernel functions fail
    to distinguish nodes with different coordinates.
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
            if leak > 1e-8 * max(np.linalg.norm(G), 1.0):
                raise InputError("kernel functions do not distinguish the nodes")
    half = np.sqrt(lam)
    Ms_star = (W * half).conj().T @ np.diag(s.conj()) @ (W / half)
    Mp_star = (W * half).conj().T @ np.diag(p.conj()) @ (W / half)
    Ms = Ms_star.conj().T
    Mp = Mp_star.conj().T
    D = psd_sqrt(np.eye(r) - Mp @ Mp_star, cfg)
    coords = tuple((W * half).conj().T[:, j] for j in range(n))
    return KernelBasisOperators(Ms, Mp, D, coords, r)


@dataclass(frozen=True)
class _FundamentalModel:
    """Internal bundle shared by the fundamental operator and the audit."""
    ops: KernelBasisOperators
    F: np.ndarray             # pseudo-inverse solution, zero on ker(D)
    range_basis: np.ndarray   # orthonormal basis of the numerical Ran(D)
    residual: float


def _fundamental_model(K: KernelMatrix, cfg: Tolerances) -> _FundamentalModel:
    ops = kernel_basis_operators(K, cfg)
    ms_norm = np.linalg.norm(ops.Ms, 2)
    mp_norm = np.linalg.norm(ops.Mp, 2)
    if mp_norm > 1.0 + cfg.tol_op:
        raise InputError(f"||Mp|| = {mp_norm:.9f} > 1: kernel is not admissible")
    if ms_norm > 2.0 + cfg.tol_op:
        raise InputError(f"||Ms|| = {ms_norm:.9f} > 2: kernel is not admissible")
    S = ops.Ms.conj().T - ops.Ms @ ops.Mp.conj().T
    # rank-decide on the D^2 = I - Mp Mp* scale: an eigenvalue of D^2 at
    # roundoff level means a genuine null direction of D, and dividing by its
    # square root would amplify noise in S into an O(1) artifact
    D2 = np.eye(ops.range_dim) - ops.Mp @ ops.Mp.conj().T
    d2vals, dvecs = np.linalg.eigh((D2 + D2.conj().T) / 2)
    keep = d2vals > cfg.rank_tol * max(d2vals.max() if len(d2vals) else _EPS, _EPS)
    Vd = dvecs[:, keep]
    dv = np.sqrt(d2vals[keep])
    core = (Vd.conj().T @ S @ Vd) / np.outer(dv, dv)
    F = Vd @ core @ Vd.conj().T
    residual = float(np.linalg.norm(Vd @ (core * np.outer(dv, dv)) @ Vd.conj().T - S))
    tol = cfg.tol_fund_rel * ms_norm + 1e-13
    if residual > tol:
        raise NumericalError(
            f"fundamental equation residual {residual:.3e} exceeds {tol:.3e}: "
            "kernel is not Gamma-consistent")
    return _FundamentalModel(ops, F, Vd, residual)


def fundamental_operator(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """The operator F' with M_s* - M_s M_p* = D F' D, D = (I - M_p M_p*)^{1/2}.

    Solved through the pseudo-inverse: F' is unique on the range of D and is
    extended by zero on its kernel (harmless: the extension only contributes
    zero eigenvalues, which are never unimodular).
    """
    return _fundamental_model(K, cfg).F


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
    intertwine_p: float
    tail_bound: float
    trunc: int


def admissibility_audit(K: KernelMatrix, trunc: int | None = None,
                        cfg: Tolerances = DEFAULT) -> AdmissibilityReport:
    """Audit the necessary conditions for admissibility of a kernel.

    Checks the multiplication norm bounds, nu(F') <= 1 for the fundamental
    operator, and that the truncated dilation map

        Pi h = (D h, D Mp* h, D Mp*^2 h, ...)

    is an isometry intertwining (M_s*, M_p*) with the model pair, up to the
    geometric tail ||Mp||^trunc.  A PASS is evidence, not a proof.
    """
    return _audit_model(_fundamental_model(K, cfg), trunc, cfg)


def _audit_model(model: _FundamentalModel, trunc: int | None,
                 cfg: Tolerances) -> AdmissibilityReport:
    """The audit of :func:`admissibility_audit` on a prebuilt fundamental model."""
    if trunc is None:
        trunc = cfg.trunc
    failures = []
    ops = model.ops
    mp_norm = float(np.linalg.norm(ops.Mp, 2))
    ms_norm = float(np.linalg.norm(ops.Ms, 2))
    if mp_norm > 1.0 + cfg.tol_op:
        failures.append("mp_norm")
    if ms_norm > 2.0 + cfg.tol_op:
        failures.append("ms_norm")
    nu_f = float(numerical_radius(model.F, cfg))
    if nu_f > 1.0 + cfg.tol_nu:
        failures.append("fundamental_numerical_radius")
    tail = min(1.0, mp_norm) ** trunc if mp_norm <= 1.0 + cfg.tol_op else 1.0
    budget = cfg.tol_dil + tail

    r = ops.range_dim
    Mp_star = ops.Mp.conj().T
    Ms_star = ops.Ms.conj().T
    F_full = model.F
    rows = [ops.D]
    for _ in range(trunc - 1):
        rows.append(rows[-1] @ Mp_star)
    Pi = np.vstack(rows)
    iso = float(np.linalg.norm(Pi.conj().T @ Pi - np.eye(r)))
    if iso > budget:
        failures.append("dilation_isometry")
    worst_s = 0.0
    worst_p = 0.0
    for n in range(trunc - 1):
        lhs_s = rows[n] @ Ms_star
        rhs_s = F_full @ rows[n] + F_full.conj().T @ rows[n + 1]
        worst_s = max(worst_s, float(np.linalg.norm(lhs_s - rhs_s)))
        worst_p = max(worst_p, float(np.linalg.norm(rows[n] @ Mp_star - rows[n + 1])))
    if worst_s > budget:
        failures.append("intertwining_s")
    if worst_p > budget:
        failures.append("intertwining_p")
    return AdmissibilityReport(
        passed=not failures,
        failures=tuple(failures),
        mp_norm=mp_norm,
        ms_norm=ms_norm,
        nu_fundamental=nu_f,
        fundamental_residual=model.residual,
        isometry_defect=iso,
        intertwine_s=worst_s,
        intertwine_p=worst_p,
        tail_bound=tail,
        trunc=trunc,
    )


@dataclass(frozen=True)
class PerturbedInterpolant:
    """h_delta = f + delta * prod_r [(s - s_r) + eta (p - p_r)]."""
    base: callable
    data: PickData
    eta: complex
    delta: float
    sup_norm_estimate: float

    def __call__(self, x: GammaPoint) -> complex:
        prod = 1.0 + 0.0j
        for nd in self.data.nodes:
            prod *= (complex(x.s) - nd.s) + self.eta * (complex(x.p) - nd.p)
        return complex(self.base(x) + self.delta * prod)


def nonextremal_perturbation(data: PickData, f, eta: complex, delta: float,
                             n_grid: int = 400, seed: int = 0,
                             cfg: Tolerances = DEFAULT) -> PerturbedInterpolant:
    """Interpolant family showing non-extremal data have no uniqueness beyond nodes.

    ``f`` must interpolate the datum (checked).  The perturbation vanishes at
    every node, so h_delta still interpolates; the sup norm is estimated on a
    seeded random sample of the open domain.
    """
    for nd, w in zip(data.nodes, data.targets):
        if abs(f(nd) - w) > cfg.tol_interp:
            raise InputError("f does not interpolate the datum")
    probe = PerturbedInterpolant(f, data, complex(eta), float(delta), float("nan"))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_grid):
        z1 = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        z2 = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        x = GammaPoint(z1 + z2, z1 * z2)
        worst = max(worst, abs(probe(x)))
    return PerturbedInterpolant(f, data, complex(eta), float(delta), float(worst))


def agreement_locus(f_list, grid, tol: float, cfg: Tolerances = DEFAULT) -> list:
    """Grid points where all evaluators pairwise agree within tol."""
    if len(f_list) < 2:
        raise InputError("agreement needs at least two evaluators")
    out = []
    for x in grid:
        vals = [f(x) for f in f_list]
        worst = max(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
        if worst <= tol:
            out.append(x)
    return out
