"""Kernel evaluators: abstract point-pair functions over the domain.

A kernel evaluator is any callable k(x, y) -> complex on GammaPoint pairs
whose finite Gram matrices are Hermitian PSD with non-zero diagonal.  Three
families plug in uniformly: the Szego-type kernel of the domain, model
kernels carried by a pencil variety, and user-supplied Gram tables.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError
from .gamma import GammaPoint, coincident, szego_kernel
from .variety import PencilVariety, pencil_matrix


def szego() -> callable:
    """The Szego-type kernel of the domain as an evaluator."""
    return szego_kernel


def unit_kernel_vector(V: PencilVariety, s, p, cfg: Tolerances = DEFAULT,
                       skip=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors in ker(F + conj(p_k) F* - conj(s_k) I), one stacked SVD.

    Row k of the first array is the smallest right singular vector of that
    adjoint pencil, re-phased so its largest component is positive real; the
    second array holds its smallest singular value, the membership residual
    of (s_k, p_k).  Scalar s and p give one row, from the same arithmetic as
    one entry of a stack.  Raises at the first point, in the order given,
    that is off the variety at the tol_memb scale; points where the boolean
    mask ``skip`` is set are not checked (callers substitute stored vectors
    there).
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if s.shape != p.shape:
        raise InputError("s and p must have the same shape")
    d = V.dim
    if d == 0:
        raise InputError("the variety of an empty pencil has no points")
    pencils = pencil_matrix(V.F, s[..., None, None], p[..., None, None])
    _, sv, Vh = np.linalg.svd(pencils.conj().swapaxes(-1, -2).reshape(-1, d, d))
    s, p = s.ravel(), p.ravel()
    off = sv[:, -1] > cfg.tol_memb * np.maximum(1.0, sv[:, 0])
    if skip is not None:
        off &= ~np.asarray(skip, dtype=bool)
    if off.any():
        k = int(np.argmax(off))
        raise InputError(f"point ({complex(s[k])}, {complex(p[k])}) is off the variety: "
                         f"residual {sv[k, -1]:.3e}")
    U = Vh[:, -1].conj()
    pivot = U[np.arange(len(U)), np.argmax(np.abs(U), axis=1)]
    return U * (np.conj(pivot) / np.abs(pivot))[:, None], sv[:, -1]


# 1 - p conj(q) counts as vanishing at or below this, a few dozen ulps of 1:
# only a pair with p conj(q) = 1 up to rounding reaches it, a pole of the
# kernel that no two points of the open domain attain
_KERNEL_DEN_FLOOR = 1e-14


def kernel_entry(ux: np.ndarray, uy: np.ndarray, x: GammaPoint, y: GammaPoint) -> complex:
    """<u(y), u(x)> / (1 - p conj(q)) from the kernel vectors at x = (s, p), y = (t, q)."""
    den = 1.0 - complex(x.p) * np.conj(complex(y.p))
    if abs(den) <= _KERNEL_DEN_FLOOR:
        raise InputError("kernel denominator 1 - p conj(q) vanishes")
    return complex(np.vdot(ux, uy) / den)


def model(F, cfg: Tolerances = DEFAULT) -> callable:
    """Model kernel of a c.n.u. pencil variety,

        k(x, y) = <u(y), u(x)> / (1 - p * conj(q)),

    with unit kernel vectors u chosen deterministically per point.  Values are
    cached per point so repeated requests see one consistent vector choice.
    """
    V = PencilVariety(F, cfg)
    cache: dict[tuple[complex, complex], np.ndarray] = {}

    def u_of(x: GammaPoint) -> np.ndarray:
        key = (complex(x.s), complex(x.p))
        if key not in cache:
            cache[key] = unit_kernel_vector(V, *key, cfg)[0][0]
        return cache[key]

    def evaluate(x: GammaPoint, y: GammaPoint) -> complex:
        return kernel_entry(u_of(x), u_of(y), x, y)

    return evaluate


def table(nodes, gram, cfg: Tolerances = DEFAULT) -> callable:
    """Kernel defined by a Gram table on a fixed node list."""
    G = np.asarray(gram, dtype=complex)
    ts = np.array([complex(x.s) for x in nodes], dtype=complex)
    tq = np.array([complex(x.p) for x in nodes], dtype=complex)
    if G.shape != (len(ts), len(ts)):
        raise InputError("gram table shape does not match the node list")

    def index_of(x: GammaPoint) -> int:
        hit = np.flatnonzero(coincident(x.s, x.p, ts, tq, cfg.tol_node)[0])
        if not len(hit):
            raise InputError(f"point ({x.s}, {x.p}) is not in the kernel table")
        return int(hit[0])

    def evaluate(x: GammaPoint, y: GammaPoint) -> complex:
        return complex(G[index_of(x), index_of(y)])

    return evaluate
