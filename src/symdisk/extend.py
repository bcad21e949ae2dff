"""Extension of an admissible kernel to a distinguished variety.

Pipeline: from a kernel Gram on nodes, take the fundamental operator of the
multiplication pair, keep its completely non-unitary block F, and carry the
vectors u_j = D k_j.  The nodes then satisfy (F + conj(p_j) F* - conj(s_j)) u_j = 0,
so they sit on the pencil variety of F, and

    K(x, y) = <u(y), u(x)> / (1 - p conj(q))

extends the original kernel to the variety's intersection with the domain.
:func:`branch_trace` traces the eigenvalue branches through every node with
the Riesz projections of the pencil F + z F*, read from one stacked
eigendecomposition over all paths (from the matrix sign function where the
eigenvectors are ill-conditioned), and :func:`unique_value` evaluates the
closed-form uniqueness value

    w = sum_j K(x, node_j) gamma_j / sum_j conj(w_j) K(x, node_j) gamma_j

at a stack of variety points in one pass (gamma a Pick-matrix null vector).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import IllPlacedContour, InputError, NumericalError, SymdiskError
from .gamma import GammaPoint, coincident, point_arrays
from .kernels import _KERNEL_DEN_FLOOR, unit_kernel_vector
from .linalg import _projection_failures, cluster_indices, spectral_projection
from .numrange import _peel_unitary
from .pick import KernelMatrix, _audit_model, _fundamental_model
from .variety import (PencilVariety, _with_eigenvalues, is_distinguished,
                      membership_residual, pencil_matrix)

_EPS = np.finfo(float).eps
# gamma passes as a Pick-matrix null vector when ||P gamma|| is at most this
# multiple of max(||P||, 1) ||gamma||: a hundredfold above the default
# tol_active at which psd_report calls the Pick matrix singular, and far below
# the next eigenvalue of P, the residual a vector off the null space leaves
_NULL_VECTOR_REL = 1e-7


@dataclass(frozen=True, eq=False)
class ExtensionModel:
    """The variety of a c.n.u. pencil F, with the kernel vector u_j (row j of
    ``U``) at each node (s_j, p_j)."""
    variety: PencilVariety
    s: np.ndarray
    p: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        s, p = point_arrays(self.s, self.p)
        U = np.asarray(self.U, dtype=complex)
        if U.shape != (len(s), self.variety.dim):
            raise InputError("U needs one row of length dim F per node")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "U", U)

    @property
    def F(self) -> np.ndarray:
        return self.variety.F


def build_extension(K: KernelMatrix, cfg: Tolerances = DEFAULT) -> ExtensionModel:
    """Construct the extension data (F, u_j) from an audited kernel.

    The kernel must pass the admissibility audit.  The u_j may not leak into
    the unitary block of the fundamental operator (nodes come from the open
    domain), and each must be annihilated by the node's pencil.  The
    fundamental model is built once; its passed audit certifies nu(F') for
    the splitting of the unitary block, and the splitting's c.n.u. spectrum
    is the spectrum of the extension's variety.  When nothing splits off, the
    audit's nu(F') is the variety's nu(F) too.
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
    # one matrix-vector product per node: a matrix product would move the
    # last bits of u_j.  model.D is cut to its numerical range, so u_j carries
    # no noise from the discarded sqrt-eigenvalues of D
    u_full = (model.D @ model.ops.coords.T[:, :, None])[:, :, 0]
    tilted = (dec.transform.conj().T @ u_full[:, :, None])[:, :, 0]
    U = tilted[:, m_uni:]
    norm_u = np.linalg.norm(u_full, axis=1)
    leak = np.linalg.norm(tilted[:, :m_uni], axis=1)
    resid = np.linalg.norm((pencil_matrix(F, K.s[:, None, None], K.p[:, None, None])
                            .conj().swapaxes(1, 2) @ U[:, :, None])[:, :, 0], axis=1)
    fails = np.array([norm_u <= cfg.tol_ext, leak > cfg.tol_ext * norm_u,
                      resid > cfg.tol_ext * np.maximum(1.0, norm_u)])
    if fails.any():
        # the first node that fails, with the first check it fails
        j = int(np.argmax(fails.any(axis=0)))
        raise NumericalError((f"kernel vector at node {j} collapsed",
                              f"node {j} leaks into the unitary block: {leak[j]:.3e}",
                              f"node {j} violates the pencil equation: residual {resid[j]:.3e}")
                             [int(np.argmax(fails[:, j]))])
    # with nothing split off F is a copy of F', whose nu the passed audit
    # certified; the splitting has the spectrum of F already
    V = PencilVariety._of_certified(F, report.nu_fundamental, cfg) if m_uni == 0 \
        else PencilVariety(F, cfg)
    _with_eigenvalues(V, dec.cnu_eigenvalues)
    if not is_distinguished(V, cfg):
        raise NumericalError("extension block is not completely non-unitary")
    return ExtensionModel(V, K.s, K.p, U)


def kernel_vector_at(model: ExtensionModel, x: GammaPoint,
                     cfg: Tolerances = DEFAULT) -> np.ndarray:
    """u(x) in ker(F + conj(p) F* - conj(s) I); stored u_j at the nodes.

    Off the nodes this is row 0 of :func:`symdisk.kernels.unit_kernel_vector`
    on the model's variety.  When the null space has dimension > 1 that is one
    choice among many; the uniqueness-value ratio does not depend on it.
    """
    hit = np.flatnonzero(coincident(x.s, x.p, model.s, model.p, cfg.tol_node)[0])
    if len(hit):
        return model.U[hit[0]]
    return unit_kernel_vector(model.variety, complex(x.s), complex(x.p), cfg)[0][0]


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
    eigvec_conditions: tuple     # per path point: cond_F(V) of the eigenvectors of F + z F*;
                                 # above tol_proj / eps the point took spectral_projection
    contour_radius: float


def branch_trace(model: ExtensionModel, cfg: Tolerances = DEFAULT, *,
                 radius: float | None = None) -> list:
    """Trace the branches alpha_l(z) -> conj(s_j) as z -> conj(p_j) at every node j.

    Entry j is node j's SheetTrace, or the exception its trace raises; a
    LAPACK failure of the stacked eigendecomposition or residuals raises for
    all nodes.  Each path is radial with cfg.n_steps geometric steps of 1/2,
    from ``radius`` (by default min(0.01, (1 - |p_j|)/2)).  The base pencil
    F + conj(p_j) F* and every path pencil F + z F* of all nodes take one
    stacked eigendecomposition V diag(lambda) V^-1.  At each z the
    eigenvalues inside the contour disk around conj(s_j) are clustered;
    branch vectors are v_l(z) = P_l(z) u_j, with P_l = V[:, g_l] V^-1[g_l, :]
    the Riesz projection of the cluster g_l (Kato, Perturbation Theory,
    II.1), all from one batched product and one audit.  The disk's radius
    starts at half the distance from conj(s_j) to the other base eigenvalues
    and shrinks by 0.7, up to 3 times, while an eigenvalue lies within
    dist_guard of its circle.  A point whose eigenvectors are
    ill-conditioned, eps * cond_F(V) > tol_proj, takes its projections from
    :func:`symdisk.linalg.spectral_projection` instead, which reads them off
    the matrix sign function without eigenvectors.  The traced points take
    one stacked membership residual.  Python runs per step only where the
    eigenvalues in the disk may form more than one cluster, and at points
    that take spectral_projection.  Arrays run over the nodes' path points
    in node order, n_steps per node; a node that fails keeps its first error
    and drops out of later stages.
    """
    F = model.F
    d = F.shape[0]
    n_nodes, n = len(model.s), cfg.n_steps
    if not n_nodes:
        return []
    sbar = np.conj(model.s)
    paths = []
    for pbar in np.conj(model.p):
        r = min(0.01, 0.5 * (1.0 - abs(pbar))) if radius is None else radius
        direction = pbar / abs(pbar) if abs(pbar) > 1e-14 else 1.0 + 0.0j
        if abs(pbar) + r >= 1.0 - 1e-12:
            direction = -direction
        paths.append([pbar, *(pbar + direction * r * 0.5 ** k for k in range(n))])

    # each node's base pencil first, then its path pencils, in one eigendecomposition
    pencils = F + np.array(paths)[:, :, None, None] * F.conj().T
    try:
        eigs, vecs = np.linalg.eig(pencils)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed to converge: {exc}")
    scales = np.array([max(np.linalg.norm(block[0]), 1.0) for block in pencils])
    base = eigs[:, 0]
    paths = [path[1:] for path in paths]
    # one row per path point from here on: node a, step k is row a * n + k
    evs = eigs[:, 1:].reshape(-1, d)
    V = vecs[:, 1:].reshape(-1, d, d)
    pencils = pencils[:, 1:].reshape(-1, d, d)
    node_of = np.repeat(np.arange(n_nodes), n)
    Vinv = _inverses(V)
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.linalg.norm(V, axis=(1, 2)) * np.linalg.norm(Vinv, axis=(1, 2))
    on_contour = ~(_EPS * cond <= cfg.tol_proj)  # a singular V (nan) takes it too

    gap = np.abs(base - sbar[:, None])
    far = gap > cfg.tol_cluster * scales[:, None]
    eps0 = 0.5 * np.where(far.any(axis=1), np.where(far, gap, np.inf).min(axis=1), scales)
    dist = np.abs(evs - sbar[node_of, None])
    radii, stuck = _disk_radii(dist.reshape(n_nodes, n, d), eps0, cfg)
    errors = [None if k < 0 else IllPlacedContour(f"no admissible contour around {sbar[a]} "
                                                  f"at z = {paths[a][k]}")
              for a, k in enumerate(stuck.tolist())]
    radii = radii.ravel()
    inside = dist < radii[:, None]

    ctol = cfg.tol_cluster * np.maximum(1.0, np.linalg.norm(pencils, axis=(1, 2)))
    live = np.array([e is None for e in errors])[node_of]
    values, owner, masks, centers, start = _projection_rows(evs, inside, ctol, live,
                                                            sbar[node_of])
    first = np.zeros(len(owner), dtype=bool)
    first[start[live]] = True

    P = np.zeros((len(owner), d, d), dtype=complex)
    defects = np.zeros(len(owner))
    by_eig = ~on_contour[owner]
    if by_eig.any():
        o = owner[by_eig]
        P[by_eig] = (V[o] * masks[by_eig][:, None, :]) @ Vinv[o]
        defects[by_eig], failures = _projection_failures(P[by_eig], masks[by_eig].sum(axis=1),
                                                         cfg)
        rows = np.flatnonzero(by_eig)
        for r, exc in failures.items():
            a = node_of[owner[rows[r]]]
            if errors[a] is None:
                errors[a] = exc
    for r in np.flatnonzero(~by_eig).tolist():
        i = owner[r]
        if errors[node_of[i]] is not None:
            continue
        rad = radii[i] if first[r] else 0.5 * np.abs(centers[r] - evs[i, ~masks[r]]).min()
        try:
            proj = spectral_projection(pencils[i], centers[r], rad, cfg=cfg, eigenvalues=evs[i])
        except SymdiskError as exc:
            errors[node_of[i]] = exc
            continue
        P[r], defects[r] = proj.matrix, proj.idempotency_defect
    u = model.U
    vs = (P @ u[node_of[owner], :, None])[:, :, 0]
    sum_errors = np.full(len(live), np.nan)
    sum_errors[live] = np.linalg.norm(vs[first] - u[node_of[live]], axis=1)
    point_defects = np.full(len(live), np.nan)
    point_defects[live] = defects[first]

    # every traced point (conj(alpha_l(z)), conj(z)) of the nodes without an
    # error in one stacked residual call, and each point's worst
    ok = np.array([e is None for e in errors])
    n_vals = np.array([len(v) for v in values]) * ok[node_of]
    alphas = np.conj(np.array([m for v, keep in zip(values, ok[node_of]) if keep for m in v],
                              dtype=complex))
    zbar = np.repeat(np.conj(np.array(paths, dtype=complex)).ravel(), n_vals)
    resid = membership_residual(model.variety, alphas, zbar) if ok.any() else np.zeros(0)
    memb = np.full(len(n_vals), np.nan)
    has = n_vals > 0
    if has.any():
        memb[has] = np.maximum.reduceat(resid, (np.cumsum(n_vals) - n_vals)[has])

    vectors = list(vs)
    ends = np.r_[start[1:], len(owner)].tolist()
    out = []
    for a in range(n_nodes):
        if errors[a] is not None:
            out.append(errors[a])
            continue
        pts = slice(a * n, (a + 1) * n)
        bv = values[pts]
        sb = sbar[a]
        out.append(SheetTrace(
            node_index=a,
            z_path=tuple(paths[a]),
            branch_values=tuple(bv),
            branch_vectors=tuple(tuple(vectors[end - len(v):end])
                                 for end, v in zip(ends[pts], bv)),
            branch_count=len(bv[-1]),
            alpha_errors=tuple(max(abs(m - sb) for m in v) if v else float("nan")
                               for v in bv),
            sum_errors=tuple(sum_errors[pts].tolist()),
            membership_residuals=tuple(memb[pts].tolist()),
            projection_defects=tuple(point_defects[pts].tolist()),
            eigvec_conditions=tuple(cond[pts].tolist()),
            contour_radius=float(radii[(a + 1) * n - 1]),
        ))
    return out


def _projection_rows(evs: np.ndarray, inside: np.ndarray, ctol: np.ndarray, live: np.ndarray,
                     center: np.ndarray):
    """The Riesz projections the path points need, one row each.

    A point gets one projection for its whole disk (the eigenvalues
    ``inside[i]`` around ``center[i]``), then one per cluster where the disk
    holds more than one; a point that is not ``live`` gets none.  Returns
    the cluster means of every point, each row's point, eigenvalue mask and
    center (a cluster's center is its mean), and each point's first row.
    """
    # inside eigenvalues closer than ctol to each other form one cluster (the
    # greedy clustering puts them all in its first); the margin of 1/2 keeps the
    # roundoff of a cluster mean from deciding
    n_in = inside.sum(axis=1)
    spread = np.where(inside[:, :, None] & inside[:, None, :],
                      np.abs(evs[:, :, None] - evs[:, None, :]), 0.0).max(axis=(1, 2))
    one_mean = np.where(inside, evs, 0.0).sum(axis=1) / np.maximum(n_in, 1)
    values = [(m,) if k else () for m, k in zip(one_mean.tolist(), n_in.tolist())]
    counts = live.astype(int)
    clusters = {}
    for i in np.flatnonzero(live & ~(spread <= 0.5 * ctol)).tolist():
        idx = np.flatnonzero(inside[i])
        groups = [idx[g] for g in cluster_indices(evs[i, idx], ctol[i])]
        values[i] = tuple(complex(np.mean(evs[i, g])) for g in groups)
        if len(groups) > 1:
            clusters[i] = groups
            counts[i] += len(groups)
    owner = np.repeat(np.arange(len(evs)), counts)
    start = np.cumsum(counts) - counts
    masks = inside[owner]
    centers = center[owner]
    # the cluster rows follow their point's disk row
    for i, groups in clusters.items():
        for r, g, mean in zip(range(start[i] + 1, start[i] + counts[i]), groups, values[i]):
            masks[r] = False
            masks[r, g] = True
            centers[r] = mean
    return values, owner, masks, centers, start


def _disk_radii(dist: np.ndarray, eps: np.ndarray, cfg: Tolerances):
    """The radius of the disk around each node's center at each of its path points.

    ``dist[a, k]`` holds the eigenvalue distances to node a's center at its
    point k.  Each point starts from the previous point's radius (the first
    from ``eps[a]``) and shrinks it by 0.7, up to 3 times, while an eigenvalue
    lies within dist_guard of the circle: the guard of
    :func:`spectral_projection`, decided on the known eigenvalues without a
    solve.  Returns the radii and, per node, the first step that finds no
    admissible radius (-1 where every step does).
    """
    n_nodes, n, _ = dist.shape
    radii = np.repeat(eps[:, None], n, axis=1)
    stuck = np.full(n_nodes, -1)
    guard = cfg.dist_guard * eps[:, None, None]
    hits = (np.abs(dist - eps[:, None, None]) < guard).any(axis=2).any(axis=0)
    if not hits.any():
        return radii, stuck     # no radius ever shrinks
    eps = eps.copy()
    for k in range(int(np.argmax(hits)), n):
        for _ in range(4):
            hit = (np.abs(dist[:, k] - eps[:, None]) < cfg.dist_guard * eps[:, None]).any(axis=1)
            hit &= stuck < 0
            if not hit.any():
                break
            eps = np.where(hit, eps * 0.7, eps)
        else:
            stuck[hit] = k
        radii[:, k] = eps
    return radii, stuck


def _inverses(V: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a stack; nan for a singular one."""
    try:
        return np.linalg.inv(V)
    except np.linalg.LinAlgError:
        out = np.full_like(V, np.nan)
        for k, Vk in enumerate(V):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = np.linalg.inv(Vk)
        return out


class UniqueValues(NamedTuple):
    """Uniqueness values at a stack of variety points, from :func:`unique_value`."""
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
    if len(model.s) != n or \
            not np.diagonal(coincident(K.s, K.p, model.s, model.p, cfg.tol_node)).all():
        raise InputError("the extension model is not built on the kernel's nodes")
    pick = (1.0 - np.outer(w, w.conj())) * K.gram
    resid = np.linalg.norm(pick @ gamma)
    if resid > _NULL_VECTOR_REL * max(1.0, np.linalg.norm(pick)) * np.linalg.norm(gamma):
        raise InputError(f"gamma is not a Pick-matrix null vector: residual {resid:.3e}")
    s, p = point_arrays(s, p)
    kden = 1.0 - p[:, None] * np.conj(K.p)
    vanishing = (np.abs(kden) <= _KERNEL_DEN_FLOOR).any(axis=1)
    near = coincident(s, p, model.s, model.p, cfg.tol_node)
    at_node = near.any(axis=1)
    # a point is checked for membership before its kernel column is formed,
    # so an off-variety point ahead of the first vanishing denominator wins
    m = int(np.argmax(vanishing)) + 1 if vanishing.any() else len(vanishing)
    U, sigma = unit_kernel_vector(model.variety, s, p, cfg,
                                  skip=at_node | (np.arange(len(vanishing)) >= m))
    if vanishing.any():
        raise InputError("kernel denominator 1 - p conj(q) vanishes")
    U[at_node] = model.U[np.argmax(near[at_node], axis=1)]
    col = (U.conj() @ model.U.T) / kden
    num = col @ gamma
    den = (w.conj() * col) @ gamma
    scale = np.abs(col) @ np.abs(gamma)
    den_ok = np.abs(den) > cfg.tol_den * np.maximum(scale, _EPS)
    ratio = np.divide(num, den, out=np.full(len(den), np.nan, dtype=complex), where=den_ok)
    return ratio, den_ok, sigma


def unique_value(model: ExtensionModel, K: KernelMatrix, gamma, targets, s, p,
                 cfg: Tolerances = DEFAULT) -> UniqueValues:
    """The closed-form values forced by an active kernel at the variety points (s_k, p_k).

    gamma must annihilate the Pick matrix of (K, targets); each value is the
    ratio of extended-kernel sums and is exactly invariant under rescaling
    gamma.  The model must be built on the nodes of K; u(x) is paired with
    the stored u_j.  A point whose denominator vanishes ("sheet
    inconclusive"), or whose value escapes the closed unit disk, gets the
    value nan and the flag 0.  Input errors raise, an off-variety point at
    the first such point in the order given.
    """
    ratio, den_ok, sigma = _uniqueness_ratios(model, K, gamma, targets, s, p, cfg)
    flags = den_ok & ~(np.abs(ratio) > 1.0 + cfg.tol_op)
    values = np.where(flags, ratio, complex(np.nan, np.nan))
    return UniqueValues(values, flags.astype(int), sigma)
