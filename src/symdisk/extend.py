"""Extension of an admissible kernel to a distinguished variety.

Pipeline: from a kernel Gram on nodes, take the fundamental operator of the
multiplication pair, keep its completely non-unitary block F, and carry the
vectors u_j = D k_j.  The nodes then satisfy (F + conj(p_j) F* - conj(s_j)) u_j = 0,
so they sit on the pencil variety of F, and

    K(x, y) = <u(y), u(x)> / (1 - p conj(q))

extends the original kernel to the variety's intersection with the domain.
Eigenvalue branches through a node are traced with contour-integral spectral
projections of the pencil F + z F*, and the closed-form uniqueness value

    w = sum_j K(x, node_j) gamma_j / sum_j conj(w_j) K(x, node_j) gamma_j

is evaluated along the variety (gamma a Pick-matrix null vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import IllPlacedContour, InputError, NumericalError
from .gamma import GammaPoint, coincident
from .kernels import _KERNEL_DEN_FLOOR, unit_kernel_vector, unit_kernel_vectors
from .linalg import cluster_indices, spectrum, spectral_projection
from .numrange import _peel_unitary
from .pick import KernelMatrix, _audit_model, _fundamental_model
from .variety import PencilVariety, is_distinguished, membership_residuals, pencil_matrix

_EPS = np.finfo(float).eps
# gamma passes as a Pick-matrix null vector when ||P gamma|| is at most this
# multiple of max(||P||, 1) ||gamma||: a hundredfold above the default
# tol_active at which psd_report calls the Pick matrix singular, and far below
# the next eigenvalue of P, the residual a vector off the null space leaves
_NULL_VECTOR_REL = 1e-7


@dataclass(frozen=True)
class ExtensionModel:
    """A c.n.u. pencil together with kernel vectors at the nodes."""
    F: np.ndarray
    nodes: tuple
    u_nodes: tuple
    cfg: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    @cached_property
    def variety(self) -> PencilVariety:
        """The pencil variety of F, built (and nu(F) computed) on first use."""
        return PencilVariety(self.F, self.cfg)


def build_extension(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> ExtensionModel:
    """Construct the extension data (F, u_j) from an audited kernel.

    The kernel must pass the admissibility audit.  The u_j may not leak into
    the unitary block of the fundamental operator (nodes come from the open
    domain), and each must be annihilated by the node's pencil.  The
    fundamental model is built once; its passed audit certifies nu(F') for
    the peeling of the unitary block.
    """
    model = _fundamental_model(K, cfg)
    report = _audit_model(model, cfg)
    if not report.passed:
        raise InputError(
            f"kernel failed the admissibility audit: {', '.join(report.failures)}")
    dec = _peel_unitary(model.F, cfg)
    m_uni = model.F.shape[0] - dec.cnu_block.shape[0]
    F = dec.cnu_block
    if F.shape[0] == 0:
        raise InputError("fundamental operator is entirely unitary; "
                         "no c.n.u. block to extend along")
    nodes = K.nodes
    us = []
    for j, x in enumerate(nodes):
        # model.D is cut to its numerical range, so u_j carries no noise from
        # the discarded sqrt-eigenvalues of D
        u_full = model.D @ model.ops.coord_vectors[j]
        norm_u = np.linalg.norm(u_full)
        if norm_u <= cfg.tol_ext:
            raise NumericalError(f"kernel vector at node {j} collapsed")
        tilted = dec.transform.conj().T @ u_full
        leak = np.linalg.norm(tilted[:m_uni])
        if leak > cfg.tol_ext * norm_u:
            raise NumericalError(
                f"node {j} leaks into the unitary block: {leak:.3e}")
        u = tilted[m_uni:]
        resid = np.linalg.norm(pencil_matrix(F, x.s, x.p).conj().T @ u)
        if resid > cfg.tol_ext * max(1.0, norm_u):
            raise NumericalError(
                f"node {j} violates the pencil equation: residual {resid:.3e}")
        us.append(u)
    ext = ExtensionModel(F, tuple(nodes), tuple(us), cfg)
    if not is_distinguished(ext.variety, cfg):
        raise NumericalError("extension block is not completely non-unitary")
    return ext


def kernel_vector_at(model: ExtensionModel, x: GammaPoint,
                     cfg: Tolerances = DEFAULT) -> np.ndarray:
    """u(x) in ker(F + conj(p) F* - conj(s) I); stored u_j at the nodes.

    Off the nodes this is :func:`symdisk.kernels.unit_kernel_vector` on the
    model's variety.  When the null space has dimension > 1 that is one
    choice among many; the uniqueness-value ratio does not depend on it.
    """
    hit = np.flatnonzero(coincident(x.s, x.p, [nd.s for nd in model.nodes],
                                    [nd.p for nd in model.nodes], cfg.tol_node)[0])
    if len(hit):
        return model.u_nodes[hit[0]]
    return unit_kernel_vector(model.variety, x, cfg)


@dataclass(frozen=True)
class SheetTrace:
    """Eigenvalue branches of F + z F* along a path into a node."""
    node_index: int
    z_path: tuple
    branch_values: tuple     # per path point: tuple of cluster means
    branch_vectors: tuple    # per path point: tuple of projected vectors
    branch_count: int        # stable cluster count at the path end
    alpha_errors: tuple      # per path point: max |alpha_l(z) - conj(s_j)|
    sum_errors: tuple        # per path point: ||sum_l v_l(z) - u_j||
    membership_residuals: tuple  # per path point: worst residual of (conj a, conj z)
    projection_defects: tuple    # per path point: ||P^2 - P|| of the enclosing P(z)
    contour_radius: float


def branch_trace(model: ExtensionModel, node_index: int, radius: float | None = None,
                 n_steps: int | None = None, cfg: Tolerances = DEFAULT) -> SheetTrace:
    """Trace the branches alpha_l(z) -> conj(s_j) as z -> conj(p_j).

    The path is radial with geometric step 1/2.  At each z the eigenvalues of
    F + z F* inside the contour disk around conj(s_j) are clustered; branch
    vectors are v_l(z) = P_l(z) u_j with P_l the spectral projection of the
    cluster.  The contour auto-shrinks up to 3 times when an eigenvalue lands
    too close to it.
    """
    if n_steps is None:
        n_steps = cfg.n_steps
    if not (0 <= node_index < len(model.nodes)):
        raise InputError("node index out of range")
    nd = model.nodes[node_index]
    u_j = model.u_nodes[node_index]
    F = model.F
    d = F.shape[0]
    pbar = np.conj(complex(nd.p))
    sbar = np.conj(complex(nd.s))
    V = model.variety

    # at an origin node the base pencil is F itself, whose spectrum the variety keeps
    base = V.eigenvalues if pbar == 0 else spectrum(F + pbar * F.conj().T, cfg)
    scale = max(np.linalg.norm(F + pbar * F.conj().T), 1.0)
    others = [ev for ev in base if abs(ev - sbar) > cfg.tol_cluster * scale]
    if others:
        eps0 = 0.5 * min(abs(ev - sbar) for ev in others)
    else:
        eps0 = 0.5 * max(1.0, scale)

    if radius is None:
        radius = min(0.01, 0.5 * (1.0 - abs(pbar)))
    direction = pbar / abs(pbar) if abs(pbar) > 1e-14 else 1.0 + 0.0j
    if abs(pbar) + radius >= 1.0 - 1e-12:
        direction = -direction
    z_path = [pbar + direction * radius * 0.5 ** k for k in range(n_steps)]

    branch_values, branch_vectors = [], []
    alpha_errors, sum_errors, proj_defects = [], [], []
    eps_used = eps0
    for z in z_path:
        pencil = F + z * F.conj().T
        evs = spectrum(pencil, cfg)
        proj = None
        eps = eps_used
        for _ in range(4):
            try:
                proj = spectral_projection(pencil, sbar, eps, cfg.n_quad, cfg, evs)
                break
            except IllPlacedContour:
                eps *= 0.7
        if proj is None:
            raise IllPlacedContour(
                f"no admissible contour around {sbar} at z = {z}")
        eps_used = eps
        inside = [i for i in range(d) if abs(evs[i] - sbar) < eps]
        vsum = proj.matrix @ u_j
        proj_defects.append(proj.idempotency_defect)
        sum_errors.append(float(np.linalg.norm(vsum - u_j)))
        ctol = cfg.tol_cluster * max(1.0, np.linalg.norm(pencil))
        groups = cluster_indices(np.array([evs[i] for i in inside]), ctol)
        means, vecs = [], []
        for g in groups:
            mean = complex(np.mean([evs[inside[i]] for i in g]))
            means.append(mean)
            if len(groups) == 1:
                vecs.append(vsum)
                continue
            gap = min(abs(mean - evs[k]) for k in range(d)
                      if k not in [inside[i] for i in g])
            sub = spectral_projection(pencil, mean, 0.5 * gap, cfg.n_quad, cfg, evs)
            vecs.append(sub.matrix @ u_j)
        branch_values.append(tuple(means))
        branch_vectors.append(tuple(vecs))
        alpha_errors.append(max(abs(m - sbar) for m in means) if means else float("nan"))
    # every traced point (conj(alpha_l(z)), conj(z)) in one stacked residual call
    step = np.repeat(np.arange(len(z_path)), [len(means) for means in branch_values])
    alphas = np.array([m for means in branch_values for m in means], dtype=complex)
    resid = membership_residuals(V, np.conj(alphas), np.conj(np.asarray(z_path))[step])
    memb = [float(resid[step == k].max()) if means else float("nan")
            for k, means in enumerate(branch_values)]
    return SheetTrace(
        node_index=node_index,
        z_path=tuple(z_path),
        branch_values=tuple(branch_values),
        branch_vectors=tuple(branch_vectors),
        branch_count=len(branch_values[-1]),
        alpha_errors=tuple(alpha_errors),
        sum_errors=tuple(sum_errors),
        membership_residuals=tuple(memb),
        projection_defects=tuple(proj_defects),
        contour_radius=float(eps_used),
    )


class UniqueValues(NamedTuple):
    """Uniqueness values at a stack of variety points, from :func:`unique_values`."""
    values: np.ndarray     # w_k, nan where flags_k is 0
    flags: np.ndarray      # 1 where w_k is decided, 0 where a guard failed
    residuals: np.ndarray  # sigma_min of the pencil at (s_k, p_k): the membership residual


def _uniqueness_ratios(model: ExtensionModel, K: KernelMatrix, gamma, targets, s, p,
                       cfg: Tolerances):
    """Ratios num/den at every (s_k, p_k), where den clears tol_den, and the residuals.

    Validates gamma and the model once, takes u(x) at all points from one
    stacked SVD (the stored u_j where a point coincides with a node) and the
    kernel columns from one product.
    """
    gamma = np.asarray(gamma, dtype=complex).ravel()
    w = np.asarray(targets, dtype=complex).ravel()
    n = len(K)
    if len(gamma) != n or len(w) != n:
        raise InputError("gamma and targets must match the node count")
    ks = np.array([complex(x.s) for x in K.nodes], dtype=complex)
    kq = np.array([complex(x.p) for x in K.nodes], dtype=complex)
    ms = [nd.s for nd in model.nodes]
    mq = [nd.p for nd in model.nodes]
    if len(model.nodes) != n or not np.diagonal(coincident(ks, kq, ms, mq, cfg.tol_node)).all():
        raise InputError("the extension model is not built on the kernel's nodes")
    pick = (1.0 - np.outer(w, w.conj())) * K.gram
    resid = np.linalg.norm(pick @ gamma)
    if resid > _NULL_VECTOR_REL * max(1.0, np.linalg.norm(pick)) * np.linalg.norm(gamma):
        raise InputError(f"gamma is not a Pick-matrix null vector: residual {resid:.3e}")
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if s.shape != p.shape:
        raise InputError("s and p must have the same shape")
    kden = 1.0 - p.reshape(-1, 1) * np.conj(kq)
    vanishing = (np.abs(kden) <= _KERNEL_DEN_FLOOR).any(axis=1)
    near = coincident(s, p, ms, mq, cfg.tol_node)
    at_node = near.any(axis=1)
    if vanishing.any():
        # a point is checked for membership before its kernel column is formed,
        # so an off-variety point ahead of the first vanishing denominator wins
        m = int(np.argmax(vanishing)) + 1
        unit_kernel_vectors(model.variety, s.ravel()[:m], p.ravel()[:m], cfg,
                            skip=at_node[:m])
        raise InputError("kernel denominator 1 - p conj(q) vanishes")
    U, sigma = unit_kernel_vectors(model.variety, s, p, cfg, skip=at_node)
    u_nodes = np.array(model.u_nodes, dtype=complex).reshape(n, model.F.shape[0])
    U[at_node] = u_nodes[np.argmax(near[at_node], axis=1)]
    col = (U.conj() @ u_nodes.T) / kden
    num = col @ gamma
    den = (w.conj() * col) @ gamma
    scale = np.abs(col) @ np.abs(gamma)
    den_ok = np.abs(den) > cfg.tol_den * np.maximum(scale, _EPS)
    ratio = np.divide(num, den, out=np.full(len(den), np.nan, dtype=complex), where=den_ok)
    return ratio, den_ok, sigma


def unique_values(model: ExtensionModel, K: KernelMatrix, gamma, targets, s, p,
                  cfg: Tolerances = DEFAULT) -> UniqueValues:
    """The closed-form values forced at the variety points (s_k, p_k).

    The stacked form of :func:`unique_value`: a point whose denominator
    vanishes, or whose value escapes the closed unit disk, gets the value nan
    and the flag 0 instead of an exception.  Input errors still raise, an
    off-variety point at the first such point in the order given.
    """
    ratio, den_ok, sigma = _uniqueness_ratios(model, K, gamma, targets, s, p, cfg)
    flags = den_ok & ~(np.abs(ratio) > 1.0 + cfg.tol_op)
    values = np.where(flags, ratio, complex(np.nan, np.nan))
    return UniqueValues(values, flags.astype(int), sigma)


def unique_value(model: ExtensionModel, K: KernelMatrix, gamma, targets,
                 x: GammaPoint, cfg: Tolerances = DEFAULT) -> complex:
    """The closed-form value forced at x by an active kernel.

    gamma must annihilate the Pick matrix of (K, targets); the value is the
    ratio of extended-kernel sums and is exactly invariant under rescaling
    gamma.  Raises when the denominator vanishes ("sheet inconclusive") and
    when the result escapes the closed unit disk.  The model must be built on
    the nodes of K; u(x) is paired with the stored u_j.  The one-point call of
    :func:`unique_values`.
    """
    ratio, den_ok, _ = _uniqueness_ratios(model, K, gamma, targets,
                                          complex(x.s), complex(x.p), cfg)
    if not den_ok[0]:
        raise NumericalError("denominator vanishes - sheet inconclusive")
    val = complex(ratio[0])
    if abs(val) > 1.0 + cfg.tol_op:
        raise NumericalError(f"uniqueness value |w| = {abs(val):.6f} > 1; "
                             "inconsistent inputs")
    return val
