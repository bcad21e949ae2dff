"""Seeded randomized sweeps over the theorem-level equivalences.

Generators for Haar unitaries, random projections, Ginibre-based numerical
contractions, and domain points, plus the two audits used by tests and the
CLI ``verify`` command:

* equivalence sweep: for random numerical contractions the c.n.u. verdict,
  the strict region audit, and the sampled distinguished-property check must
  agree, and no sample may ever classify R2;
* PU sweep: PU + U*(I-P) is always a numerical contraction and its c.n.u.
  verdict matches the eigen-subspace witness search.

Both sweeps run in blocks of _BLOCK cases, each block in phases: draw every
case, certify the nu of every drawn matrix in one
:func:`symdisk.numrange.numerical_radii` call, build the matrices, build
their varieties with :func:`symdisk.variety.pencil_varieties`, and audit them
with :func:`symdisk.variety.region_audits`.  nu never feeds a draw, so the
random stream is consumed in exactly the order of a case-by-case loop over
:func:`haar_unitary`, :func:`random_projection` and :func:`ginibre_contraction`,
and every case's verdicts equal those of that loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .gamma import GammaPoint, Region
from .errors import InputError
from .numrange import _pu_matrix, numerical_radii, pu_witness_search
from .variety import (distinguished_property_check, is_distinguished, pencil_varieties,
                      region_audits)

# cases per block: each stacked call still carries a dozen or more matrices,
# while a block's stacked slices and region labels stay near 1 MB, so peak
# memory stays at the case-by-case level (a single block of 200 cases grew it by a fifth)
_BLOCK = 16


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


def _unit_ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Ginibre draw divided by its spectral norm (the zero matrix stays zero)."""
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    norm = np.linalg.norm(Z, 2)
    return Z if norm == 0 else Z / norm


def _scaled_contractions(Zs: list, cfg: Tolerances) -> list:
    """Every unit draw of a list scaled to numerical radius <= 1, from one nu call.

    nu is certified to tol_nu/2 absolute; on Z / ||Z||_2 it is at least 1/2,
    so dividing by it leaves an error of at most tol_nu relative, and a slight
    pullback keeps roundoff from pushing nu above 1.
    """
    nus = iter(numerical_radii([Z for Z in Zs if Z.any()], cfg))
    return [Z * (1.0 / float(next(nus))) * (1.0 - 1e-12) if Z.any() else Z for Z in Zs]


def ginibre_contraction(rng: np.random.Generator, d: int,
                        cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Ginibre matrix scaled to numerical radius <= 1 (often exactly 1)."""
    return _scaled_contractions([_unit_ginibre(rng, d)], cfg)[0]


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


def _blocks(n_cases: int):
    return (range(start, min(start + _BLOCK, n_cases)) for start in range(0, n_cases, _BLOCK))


def equivalence_sweep(n_cases: int = 200, d_max: int = 5, seed: int = 0,
                      cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random numerical contractions: the three distinguished verdicts agree.

    Non-c.n.u. cases are produced by planting a unitary block in a random
    basis, since scaled Ginibre matrices are almost surely c.n.u.  A matrix
    that is not a numerical contraction raises its InputError, the first one
    in case order.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for cases in _blocks(n_cases):
        # draw: the Ginibre draws, and for every fourth case its planted block
        draws = []
        for case in cases:
            d = int(rng.integers(1, d_max + 1))
            Zs = [_unit_ginibre(rng, d)]
            plant = None
            if case % 4 == 3:
                # plant a unimodular reducing eigenvalue
                k = int(rng.integers(1, d + 1))
                beta = np.exp(2j * np.pi * rng.uniform())
                if d > k:
                    Zs.append(_unit_ginibre(rng, d - k))
                plant = (k, beta, haar_unitary(rng, d))
            draws.append((d, Zs, plant))
        # certify nu and build F
        scaled = iter(_scaled_contractions([Z for _, Zs, _ in draws for Z in Zs], cfg))
        Fs = []
        for d, Zs, plant in draws:
            F = next(scaled)
            if plant is not None:
                k, beta, W = plant
                blocks = np.zeros((d, d), dtype=complex)
                blocks[:k, :k] = beta * np.eye(k)
                if d > k:
                    blocks[k:, k:] = next(scaled)
                F = W @ blocks @ W.conj().T
            Fs.append(F)
        # build the varieties and audit them
        Vs = pencil_varieties(Fs, cfg)
        for V in Vs:
            if isinstance(V, InputError):
                raise V
        for case, V, audit in zip(cases, Vs, region_audits(Vs, cfg=cfg)):
            verdict = bool(is_distinguished(V, cfg))
            prop = distinguished_property_check(V, audit.s, audit.p, cfg=cfg)
            if audit.counts[Region.R2.value] != 0:
                failures.append((case, "R2 hit"))
            if not (verdict == audit.strict_pass == prop):
                failures.append(
                    (case, f"verdicts differ: cnu={verdict} audit={audit.strict_pass} "
                           f"property={prop}"))
    return SweepResult("equivalence", n_cases, len(failures), tuple(failures))


def pu_sweep(n_cases: int = 100, d_max: int = 4, seed: int = 0,
             cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random (P, U): nu(PU + U*(I-P)) <= 1 and witness search matches c.n.u.

    A pair whose matrix is not a numerical contraction is a case failure.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for cases in _blocks(n_cases):
        pairs = []
        for _ in cases:
            d = int(rng.integers(2, d_max + 1))
            U = haar_unitary(rng, d)
            pairs.append((random_projection(rng, d), U))
        Ts = []
        for P, U in pairs:
            try:
                Ts.append(_pu_matrix(P, U, cfg))
            except InputError as exc:
                Ts.append(exc)
        Vs = iter(pencil_varieties([T for T in Ts if not isinstance(T, InputError)], cfg))
        for case, (P, U), T in zip(cases, pairs, Ts):
            V = T if isinstance(T, InputError) else next(Vs)
            if isinstance(V, InputError):  # not a numerical contraction
                failures.append((case, str(V)))
                continue
            verdict = bool(is_distinguished(V, cfg))
            witness = pu_witness_search(P, U, cfg)
            if verdict != (witness is None):
                failures.append(
                    (case, f"cnu={verdict} but witness {'found' if witness else 'absent'}"))
    return SweepResult("pu_family", n_cases, len(failures), tuple(failures))
