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
from .gamma import GammaPoint, szego_kernel
from .variety import PencilVariety, pencil_matrix


def szego() -> callable:
    """The Szego-type kernel of the domain as an evaluator."""
    return szego_kernel


def unit_kernel_vector(V: PencilVariety, x: GammaPoint,
                       cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Deterministic unit vector in ker(F + conj(p) F* - conj(s) I).

    The smallest right singular vector, re-phased so its largest component is
    positive real.  Raises when x is off the variety at the tol_memb scale.
    """
    s, p = complex(x.s), complex(x.p)
    _, sv, Vh = np.linalg.svd(pencil_matrix(V.F, s, p).conj().T)
    if len(sv) == 0:
        raise InputError("the variety of an empty pencil has no points")
    if sv[-1] > cfg.tol_memb * max(1.0, sv[0]):
        raise InputError(f"point ({s}, {p}) is off the variety: "
                         f"residual {sv[-1]:.3e}")
    v = Vh[-1].conj()
    k = int(np.argmax(np.abs(v)))
    return v * (np.conj(v[k]) / abs(v[k]))


def kernel_entry(ux: np.ndarray, uy: np.ndarray, x: GammaPoint, y: GammaPoint) -> complex:
    """<u(y), u(x)> / (1 - p conj(q)) from the kernel vectors at x = (s, p), y = (t, q)."""
    den = 1.0 - complex(x.p) * np.conj(complex(y.p))
    if abs(den) <= 1e-14:
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
            cache[key] = unit_kernel_vector(V, x, cfg)
        return cache[key]

    def evaluate(x: GammaPoint, y: GammaPoint) -> complex:
        return kernel_entry(u_of(x), u_of(y), x, y)

    return evaluate


def table(nodes, gram, cfg: Tolerances = DEFAULT) -> callable:
    """Kernel defined by a Gram table on a fixed node list."""
    G = np.asarray(gram, dtype=complex)
    pts = [GammaPoint(complex(x.s), complex(x.p)) for x in nodes]
    if G.shape != (len(pts), len(pts)):
        raise InputError("gram table shape does not match the node list")

    def index_of(x: GammaPoint) -> int:
        for i, nd in enumerate(pts):
            if abs(complex(x.s) - nd.s) + abs(complex(x.p) - nd.p) <= cfg.tol_node:
                return i
        raise InputError(f"point ({x.s}, {x.p}) is not in the kernel table")

    def evaluate(x: GammaPoint, y: GammaPoint) -> complex:
        return complex(G[index_of(x), index_of(y)])

    return evaluate
