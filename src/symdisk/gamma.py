"""Geometry of the symmetrized bidisk.

Points are written in the sum/product coordinates (s, p) = (z1+z2, z1*z2).
The open domain G is the image of the open bidisk; its closure is Gamma and
its distinguished boundary bG is the image of the torus.  Region labels
partition C^2 by the moduli of the two fiber roots of  l^2 - s*l + p.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError
from .linalg import as_complex_matrix


@dataclass(frozen=True)
class GammaPoint:
    """A point of C^2 in symmetrized coordinates."""
    s: complex
    p: complex

    def __iter__(self):
        return iter((self.s, self.p))


class Region(enum.Enum):
    OPEN_G = "open_G"                 # both fibers in the open disk
    DIST_BOUNDARY = "dist_boundary"   # both fibers on the circle
    R1 = "R1"                         # exactly one fiber on the circle
    R2 = "R2"                         # one fiber inside, one outside
    SYM_EXTERIOR = "sym_exterior"     # both fibers outside the closed disk


def point_arrays(s, p) -> tuple[np.ndarray, np.ndarray]:
    """The points (s_k, p_k) as two flat complex arrays; ``s`` and ``p`` must
    have the same shape, and a scalar pair counts as one point."""
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if s.shape != p.shape:
        raise InputError("s and p must have the same shape")
    return s.ravel(), p.ravel()


def symmetrize(z1: complex, z2: complex) -> GammaPoint:
    """The symmetrization map (z1, z2) -> (z1+z2, z1*z2)."""
    return GammaPoint(complex(z1) + complex(z2), complex(z1) * complex(z2))


def stacked_fibers(s, p) -> tuple[np.ndarray, np.ndarray]:
    """Root pairs of l^2 - s_k*l + p_k for equal-length arrays ``s`` and ``p``.

    Uses the cancellation-free quadratic formula: the sign of the square root
    is chosen to enlarge |s + sqrt|, the second root comes from p / root.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    disc = np.sqrt(s * s - 4.0 * p)
    disc = np.where(np.abs(s + disc) < np.abs(s - disc), -disc, disc)
    r1 = (s + disc) / 2.0
    # companion division is unsafe near the subnormal range (complex division
    # can produce nan there); cancellation is a non-issue at that scale anyway
    r2 = np.divide(p, r1, out=(s - disc) / 2.0, where=np.abs(r1) > 1e-150)
    return r1, r2


# the labels in the order of the codes returned by classify_region
REGIONS = tuple(Region)


def classify_region(s, p, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Label the points (s_k, p_k) by fiber moduli, with the tol_mod band around 1.

    Returns one code per point, an index into ``REGIONS``.  Points whose
    fiber modulus lands inside the band count as boundary, and so do points
    that meet the characterization of bG within the band.  Membership in the
    open domain is decided by the strict inequality |s - conj(s) p| < 1 - |p|^2.
    """
    tol = cfg.tol_mod
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    z1, z2 = stacked_fibers(s, p)
    m1, m2 = np.abs(z1), np.abs(z2)
    on1 = np.abs(m1 - 1.0) <= tol
    on2 = np.abs(m2 - 1.0) <= tol
    gap = np.abs(s - np.conj(s) * p)
    mod_p = np.abs(p)
    inside = gap < 1.0 - mod_p ** 2
    # bG is |p| = 1, s = conj(s) p, |s| <= 2 (Agler-Young): unlike the fiber
    # moduli, which move by sqrt(eps) at a double root, these are well conditioned
    torus = (np.abs(mod_p - 1.0) <= tol) & (gap <= tol) & (np.abs(s) <= 2.0 + tol)
    labels = [Region.DIST_BOUNDARY, Region.R1, Region.OPEN_G, Region.SYM_EXTERIOR]
    return np.select([(on1 & on2) | torus, on1 | on2, inside, (m1 > 1.0) & (m2 > 1.0)],
                     [REGIONS.index(label) for label in labels],
                     default=REGIONS.index(Region.R2))


def coincident(s, p, t, q, tol: float) -> np.ndarray:
    """Entry [k, j]: do (s_k, p_k) and (t_j, q_j) coincide, |s_k - t_j| + |p_k - q_j| <= tol.

    The node-coincidence rule of every layer, called with tol = cfg.tol_node.
    Scalars count as one point.
    """
    s, p = point_arrays(s, p)
    t, q = point_arrays(t, q)
    return np.abs(s[:, None] - t) + np.abs(p[:, None] - q) <= tol


# the pencil 2*I - s*tau counts as singular at or below this multiple of
# max(sigma_max, 1): a condition of 1e13 or more, where rounding alone moves
# phi by about 1e13*eps = 2e-3
_PENCIL_SINGULAR = 1e-13


# margin of the two screens of the pencil check: the SVD decides only where
# neither 2 - |s| t > margin * (2 + |s| t) (Weyl) nor
# 1 > margin * max(||P||_F, 1) * ||P^{-1}||_F holds; it dwarfs the 1e-13
# threshold plus the n*eps rounding of t, |s| and the pencil, and at a
# condition of 1e6 or less the computed inverse is off by about h*1e6*eps
_PENCIL_MARGIN = 1e-6


def _pencil_check(tau, s, t: float, cfg: Tolerances) -> None:
    """Raise unless t = ||tau||_2 <= 1 + tol_op and each P = 2*I - s_k*tau,
    for tau of shape (1, h, h) and s of shape (n, 1, 1), is nonsingular.

    P is singular when sigma_min <= _PENCIL_SINGULAR * max(sigma_max, 1);
    Weyl's inequality gives sigma_min >= 2 - |s| t and sigma_max <= 2 + |s| t.
    Where that bound does not clear the threshold by a wide margin (on the
    torus, the diagonal z1 = z2) the inverse decides instead, by
    sigma_min >= 1 / ||P^{-1}||_F and sigma_max <= ||P||_F, and the SVD runs
    only where neither bound does.
    """
    if t > 1.0 + cfg.tol_op:
        raise InputError("tau must be a contraction")
    st = np.abs(s[:, 0, 0]) * t
    # written so that a non-finite s, or a norm that overflows, stays
    # undecided and goes to the SVD; an exactly singular member leaves the
    # whole inverse screen undecided
    undecided = np.flatnonzero(~(2.0 - st > _PENCIL_MARGIN * (2.0 + st)))
    if not len(undecided):
        return
    P = 2.0 * np.eye(tau.shape[1])[None] - s[undecided] * tau
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            P = P[~(1.0 > _PENCIL_MARGIN * np.maximum(np.linalg.norm(P, axis=(1, 2)), 1.0)
                    * np.linalg.norm(np.linalg.inv(P), axis=(1, 2)))]
        except np.linalg.LinAlgError:
            pass
    if len(P):
        sv = np.linalg.svd(P, compute_uv=False)
        if np.any(sv[:, -1] <= _PENCIL_SINGULAR * np.maximum(sv[:, 0], 1.0)):
            raise InputError("singular pencil 2*I - s*tau")


def phi_operator(tau, s, p, cfg: Tolerances = DEFAULT, *,
                 tau_norm: float | None = None) -> np.ndarray:
    """Stack of phi(tau, s_k, p_k) = (2*tau*p_k - s_k*I)(2*I - s_k*tau)^{-1}, shape
    (len(s), h, h) for equal-length ``s`` and ``p``, after one :func:`_pencil_check`
    (on ``tau_norm`` when the caller has ||tau||_2 already)."""
    tau = as_complex_matrix(tau, square=True)
    s = np.asarray(s, dtype=complex)[:, None, None]
    p = np.asarray(p, dtype=complex)[:, None, None]
    # tau and I get the stack axis too: numpy multiplies a (1, 1, 1) complex
    # array by a (1, 1) one in another inner loop than by a (1, 1, 1) one,
    # and only the latter keeps the last bits of a scalar times a 1 x 1 tau
    tau = tau[None]
    _pencil_check(tau, s, np.linalg.norm(tau[0], 2) if tau_norm is None else tau_norm, cfg)
    eye = np.eye(tau.shape[1])[None]
    pencil = 2.0 * eye - s * tau
    rhs = 2.0 * p * tau - s * eye
    return np.linalg.solve(pencil.transpose(0, 2, 1), rhs.transpose(0, 2, 1)).transpose(0, 2, 1)


def szego_kernel(s, p) -> np.ndarray:
    """Gram matrix [k(x_i, x_j)] of the Szego-type kernel of the domain,

        k(x, y) = 1 / ((1 - p*conj(q))^2 - (s - conj(t)*p)(conj(t) - s*conj(q)))

    for x = (s, p), y = (t, q), over the points x_i = (s_i, p_i).  Hermitian.
    """
    s = np.asarray(s, dtype=complex).reshape(-1, 1)
    p = np.asarray(p, dtype=complex).reshape(-1, 1)
    t, q = s.conj().T, p.conj().T
    den = (1.0 - p * q) ** 2 - (s - t * p) * (t - s * q)
    if np.any(np.abs(den) <= 1e-14):
        raise InputError("Szego kernel denominator vanishes")
    return 1.0 / den
