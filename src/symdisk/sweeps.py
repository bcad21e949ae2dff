"""Seeded randomized sweeps over the theorem-level equivalences.

Generators for Haar unitaries, random projections, Ginibre-based numerical
contractions, and domain points, plus the two audits used by tests and the
CLI ``verify`` command:

* equivalence sweep: for random numerical contractions the c.n.u. verdict,
  the strict region audit, and the sampled distinguished-property check must
  agree, and no sample may ever classify R2;
* PU sweep: PU + U*(I-P) is always a numerical contraction and its c.n.u.
  verdict matches the closure search for a subspace that reduces P and U
  and on which they commute (:func:`symdisk.numrange.pu_witness_search`).

Each sweep plants its non-generic case in every fourth draw: a unimodular
reducing block of F, or a commuting reducing piece of (P, U).
Both sweeps draw and certify in blocks of _CERTIFY_BLOCK cases.  A block
draws every case, then certifies nu of every matrix it needs in one
:func:`symdisk.numrange.numerical_radii` call: the unit Ginibre draws of the
equivalence sweep, whose certificates also fix nu of each scaled or planted
F, so no F is certified twice; and every PU + U*(I-P) of the PU sweep, since
nu <= 1 is what that sweep tests.  Both build each variety from its
certificate with ``PencilVariety._of_certified``.  The equivalence sweep
then audits its varieties with :func:`symdisk.variety.region_audit` in
sub-blocks of _BLOCK cases.  nu never feeds a draw, so the random stream is
consumed in exactly the order of a case-by-case loop over
:func:`haar_unitary`, :func:`random_projection`, :func:`ginibre_contraction`
and the planting draws, and every case's verdicts equal those of that loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .gamma import GammaPoint, Region
from .errors import InputError
from .numrange import _pu_matrix, _pu_witness, numerical_radii
from .variety import (PencilVariety, distinguished_property_check, is_distinguished,
                      region_audit)

# cases per certify block: at d = 5 a block's nu stacks stay at a few MB, and
# verify's 200 and 100 cases are one block each; a block bounds the stacks of a
# sweep of any length
_CERTIFY_BLOCK = 256
# cases per audit sub-block: each stacked call still carries a dozen or more matrices,
# while a sub-block's stacked slices and region labels stay near 1 MB, so peak
# memory stays at the case-by-case level (a single block of 200 cases grew it by a fifth)
_BLOCK = 16
# scale below 1 / nu(Z), so that roundoff keeps nu(F) <= 1
_PULLBACK = 1.0 - 1e-12


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

    Returns ``(F, nu_F)`` pairs, F = c Z with c = (1 / nu_hat) * _PULLBACK and
    nu_F = nu_hat c, where nu_hat is the certified nu(Z).  nu_hat lies within
    tol_nu/2 of nu(Z), and nu(Z) >= ||Z||_2 / 2 = 1/2, so c <= 2 (to 1e-10) and
    |nu_F - nu(F)| = c |nu_hat - nu(Z)| <= tol_nu: the contract of
    :func:`symdisk.numrange.numerical_radius`, with no second certificate.
    The pullback keeps roundoff from pushing nu above 1.  A zero draw stays
    zero, with nu 0.
    """
    nus = iter(numerical_radii([Z for Z in Zs if Z.any()], cfg))
    out = []
    for Z in Zs:
        if not Z.any():
            out.append((Z, 0.0))
            continue
        nu = float(next(nus))
        # the factors in the order of F, so both see the same scalars
        out.append((Z * (1.0 / nu) * _PULLBACK, nu * (1.0 / nu) * _PULLBACK))
    return out


def ginibre_contraction(rng: np.random.Generator, d: int,
                        cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Ginibre matrix scaled to numerical radius <= 1 (often exactly 1)."""
    return _scaled_contractions([_unit_ginibre(rng, d)], cfg)[0][0]


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


def _blocks(items, size: int):
    """Consecutive slices of ``size`` items of a range or list, the last one shorter."""
    return (items[start:start + size] for start in range(0, len(items), size))


def _check_sweep_args(n_cases: int, d_max: int, d_min: int, seed: int) -> None:
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if n_cases < 0:
        raise InputError(f"n_cases must be non-negative, got {n_cases}")
    if d_max < d_min:
        raise InputError(f"d_max must be at least {d_min}, got {d_max}")


def equivalence_sweep(n_cases: int = 200, d_max: int = 5, seed: int = 0,
                      cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random numerical contractions: the three distinguished verdicts agree.

    Non-c.n.u. cases are produced by planting a unitary block in a random
    basis, since scaled Ginibre matrices are almost surely c.n.u.  nu of a
    planted F = W (beta I (+) G) W* is max(1, nu(G)), since nu is unitarily
    invariant and takes the larger of two direct summands.  A matrix that is
    not a numerical contraction raises its InputError, the first one in case
    order.
    """
    _check_sweep_args(n_cases, d_max, 1, seed)
    rng = np.random.default_rng(seed)
    failures = []
    for block in _blocks(range(n_cases), _CERTIFY_BLOCK):
        # draw: the Ginibre draws, and for every fourth case its planted block
        draws = []
        for case in block:
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
        # certify every draw, scale it, and build F and its variety
        scaled = iter(_scaled_contractions([Z for _, Zs, _ in draws for Z in Zs], cfg))
        Vs = []
        for d, Zs, plant in draws:
            F, nu = next(scaled)
            if plant is not None:
                k, beta, W = plant
                blocks = np.zeros((d, d), dtype=complex)
                blocks[:k, :k] = beta * np.eye(k)
                nu = 1.0
                if d > k:
                    blocks[k:, k:], nu_G = next(scaled)
                    nu = max(1.0, nu_G)
                F = W @ blocks @ W.conj().T
            Vs.append(PencilVariety._of_certified(F, nu, cfg))
        # audit the varieties
        for cases, sub in zip(_blocks(block, _BLOCK), _blocks(Vs, _BLOCK)):
            for case, V, audit in zip(cases, sub, region_audit(sub, cfg=cfg)):
                verdict = bool(is_distinguished(V, cfg))
                prop = distinguished_property_check(V, audit.s, audit.p, cfg=cfg)
                if audit.counts[Region.R2.value] != 0:
                    failures.append((case, "R2 hit"))
                if not (verdict == audit.strict_pass == prop):
                    failures.append(
                        (case, f"verdicts differ: cnu={verdict} audit={audit.strict_pass} "
                               f"property={prop}"))
    return SweepResult("equivalence", n_cases, len(failures), tuple(failures))


def _planted_pair(rng: np.random.Generator, d: int):
    """(P, U) = W (P1 (+) P2, U1 (+) U2) W* with P1, U1 diagonal of order k.

    With 0 < rank P2 < d - k the Haar pair (P2, U2) almost surely has no
    commuting reducing piece, so the largest one of (P, U) has dimension k.
    """
    k = int(rng.integers(1, d))
    P = np.zeros((d, d), dtype=complex)
    U = np.zeros((d, d), dtype=complex)
    P[:k, :k] = np.diag(rng.integers(0, 2, k))
    U[:k, :k] = np.diag(np.exp(2j * np.pi * rng.uniform(size=k)))
    U[k:, k:] = haar_unitary(rng, d - k)
    r = int(rng.integers(1, d - k)) if d - k >= 2 else int(rng.integers(0, 2))
    V = haar_unitary(rng, d - k)
    P[k:, k:] = V[:, :r] @ V[:, :r].conj().T
    W = haar_unitary(rng, d)
    return W @ P @ W.conj().T, W @ U @ W.conj().T


def pu_sweep(n_cases: int = 100, d_max: int = 4, seed: int = 0,
             cfg: Tolerances = DEFAULT) -> SweepResult:
    """Random (P, U): nu(PU + U*(I-P)) <= 1 and the witness search matches c.n.u.

    Every fourth pair is planted (:func:`_planted_pair`), since a Haar pair
    with 0 < rank P < d almost surely has no commuting reducing piece.  An
    invalid pair, or one whose matrix is not a numerical contraction, is a
    case failure.
    """
    _check_sweep_args(n_cases, d_max, 2, seed)
    rng = np.random.default_rng(seed)
    failures = []
    for cases in _blocks(range(n_cases), _CERTIFY_BLOCK):
        pairs = []
        for case in cases:
            d = int(rng.integers(2, d_max + 1))
            if case % 4 == 3:
                pairs.append(_planted_pair(rng, d))
            else:
                U = haar_unitary(rng, d)
                pairs.append((random_projection(rng, d), U))
        Ts = []
        for P, U in pairs:
            try:
                Ts.append(_pu_matrix(P, U, cfg))
            except InputError as exc:
                Ts.append(exc)
        nus = iter(numerical_radii([T for T in Ts if not isinstance(T, InputError)], cfg))
        for case, (P, U), T in zip(cases, pairs, Ts):
            try:
                if isinstance(T, InputError):
                    raise T
                V = PencilVariety._of_certified(T, next(nus), cfg)
            except InputError as exc:
                failures.append((case, str(exc)))
                continue
            verdict = bool(is_distinguished(V, cfg))
            witness = _pu_witness(P, U, cfg)
            if verdict != (witness is None):
                failures.append(
                    (case, f"cnu={verdict} but witness {'found' if witness else 'absent'}"))
    return SweepResult("pu_family", n_cases, len(failures), tuple(failures))
