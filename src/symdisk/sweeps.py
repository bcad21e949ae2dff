"""Seeded randomized sweeps over the theorem-level equivalences.

Generators for Haar unitaries, random projections, Ginibre-based numerical
contractions, and domain points, plus the two audits used by tests and the
CLI ``verify`` command:

* equivalence sweep: for random numerical contractions the c.n.u. verdict,
  the strict region audit, and the sampled distinguished-property check must
  agree, and no sample may ever classify R2;
* PU sweep: PU + U*(I-P) is always a numerical contraction and its c.n.u.
  verdict matches the eigen-subspace witness search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .gamma import GammaPoint, Region
from .errors import InputError
from .numrange import _pu_matrix, numerical_radius, pu_witness_search
from .variety import (PencilVariety, distinguished_property_check, is_distinguished,
                      region_audit)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_projection(rng: np.random.Generator, d: int) -> np.ndarray:
    """Orthogonal projection onto a Haar-random subspace of random rank."""
    k = int(rng.integers(0, d + 1))
    V = haar_unitary(rng, d)
    return V[:, :k] @ V[:, :k].conj().T


def ginibre_contraction(rng: np.random.Generator, d: int,
                        cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Ginibre matrix scaled to numerical radius <= 1 (often exactly 1)."""
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    # nu is certified to tol_nu/2 absolute; on Z / ||Z||_2 it is at least 1/2,
    # so dividing by it leaves an error of at most tol_nu relative
    norm = np.linalg.norm(Z, 2)
    if norm == 0:
        return Z
    Z = Z / norm
    scale = 1.0 / numerical_radius(Z, cfg)
    # a slight pullback keeps roundoff from pushing nu above 1
    return Z * scale * (1.0 - 1e-12)


def random_g_point(rng: np.random.Generator, rmax: float = 0.95) -> GammaPoint:
    """Random point of the open domain via two disk samples."""
    z1 = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    z2 = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return GammaPoint(z1 + z2, z1 * z2)


@dataclass(frozen=True)
class SweepResult:
    name: str
    n_cases: int
    n_failures: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


def equivalence_sweep(n_cases: int = 200, d_max: int = 5, seed: int = 0,
                      cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random numerical contractions: the three distinguished verdicts agree.

    Non-c.n.u. cases are produced by planting a unitary block in a random
    basis, since scaled Ginibre matrices are almost surely c.n.u.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        d = int(rng.integers(1, d_max + 1))
        F = ginibre_contraction(rng, d, cfg)
        if case % 4 == 3:
            # plant a unimodular reducing eigenvalue
            k = int(rng.integers(1, d + 1))
            beta = np.exp(2j * np.pi * rng.uniform())
            blocks = np.zeros((d, d), dtype=complex)
            blocks[:k, :k] = beta * np.eye(k)
            if d > k:
                blocks[k:, k:] = ginibre_contraction(rng, d - k, cfg)
            W = haar_unitary(rng, d)
            F = W @ blocks @ W.conj().T
        V = PencilVariety(F, cfg)
        verdict = bool(is_distinguished(V, cfg))
        audit = region_audit(V, cfg=cfg)
        prop = distinguished_property_check(V, audit.samples, cfg=cfg)
        if audit.counts[Region.R2.value] != 0:
            failures.append((case, "R2 hit"))
        if not (verdict == audit.strict_pass == prop):
            failures.append(
                (case, f"verdicts differ: cnu={verdict} audit={audit.strict_pass} "
                       f"property={prop}"))
    return SweepResult("equivalence", n_cases, len(failures), tuple(failures))


def pu_sweep(n_cases: int = 100, d_max: int = 4, seed: int = 0,
             cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random (P, U): nu(PU + U*(I-P)) <= 1 and witness search matches c.n.u."""
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        d = int(rng.integers(2, d_max + 1))
        U = haar_unitary(rng, d)
        P = random_projection(rng, d)
        try:
            V = PencilVariety(_pu_matrix(P, U, cfg), cfg)
        except InputError as exc:  # not a numerical contraction
            failures.append((case, str(exc)))
            continue
        verdict = bool(is_distinguished(V, cfg))
        witness = pu_witness_search(P, U, cfg)
        if verdict != (witness is None):
            failures.append(
                (case, f"cnu={verdict} but witness {'found' if witness else 'absent'}"))
    return SweepResult("pu_family", n_cases, len(failures), tuple(failures))
