"""Kernels on the domain as Gram builders.

A kernel is any callable k(s, p) -> (n, n) complex array: the Gram matrix
[k(x_i, x_j)] over the n points x_i = (s_i, p_i) of two equal-length arrays,
Hermitian PSD with non-zero diagonal.  Three families plug in uniformly: the
Szego-type kernel of the domain (:func:`symdisk.gamma.szego_kernel`), model
kernels carried by a pencil variety, and user-supplied Gram tables.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError
from .gamma import coincident, point_arrays
from .variety import PencilVariety, pencil_matrix


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
    s, p = point_arrays(s, p)
    if V.dim == 0:
        raise InputError("the variety of an empty pencil has no points")
    pencils = pencil_matrix(V.F, s[:, None, None], p[:, None, None])
    _, sv, Vh = np.linalg.svd(pencils.conj().swapaxes(-1, -2))
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


def model(F, cfg: Tolerances = DEFAULT) -> callable:
    """Model kernel of a c.n.u. pencil variety, as a Gram builder:

        gram(s, p)[i, j] = <u(x_j), u(x_i)> / (1 - p_i * conj(p_j))

    for x_i = (s_i, p_i), from one stacked :func:`unit_kernel_vector` call,
    which raises at the first point, in index order, off the variety.
    """
    V = PencilVariety(F, cfg)

    def gram(s, p) -> np.ndarray:
        U, _ = unit_kernel_vector(V, s, p, cfg)
        den = 1.0 - np.outer(p, np.conj(p))
        if np.any(np.abs(den) <= _KERNEL_DEN_FLOOR):
            raise InputError("kernel denominator 1 - p conj(q) vanishes")
        return (U.conj() @ U.T) / den

    return gram


def table(t, q, gram, cfg: Tolerances = DEFAULT) -> callable:
    """Kernel defined by a Gram table on fixed nodes (t_j, q_j): the Gram
    builder of points (s_i, p_i) that each coincide with a table node."""
    G = np.asarray(gram, dtype=complex)
    ts, tq = point_arrays(t, q)
    if G.shape != (len(ts), len(ts)):
        raise InputError("gram table shape does not match the node list")

    def lookup(s, p) -> np.ndarray:
        s, p = point_arrays(s, p)
        hit = coincident(s, p, ts, tq, cfg.tol_node)
        missing = np.flatnonzero(~hit.any(axis=1))
        if len(missing):
            k = missing[0]
            raise InputError(f"point ({complex(s[k])}, {complex(p[k])}) is not in the kernel table")
        idx = np.argmax(hit, axis=1)
        return G[np.ix_(idx, idx)]

    return lookup
