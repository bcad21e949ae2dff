"""Named numerical tolerances and algorithm knobs.

Every module takes a ``Tolerances`` instance (default ``DEFAULT``) so a whole
run can be tightened or loosened coherently, e.g. from the CLI via
``--tol-<name>=<value>``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    # dense linear algebra
    tol_herm: float = 1e-12       # Hermitian symmetry defect, relative
    tol_psd: float = 1e-10        # PSD defect, relative to norm
    tol_proj: float = 1e-8        # idempotency defect of spectral projections
    tol_gram: float = 1e-10       # Gram-matrix equality for isometric maps
    rank_tol: float = 1e-10       # singular values below rank_tol*sigma_max are zero
    tol_cluster: float = 1e-8     # eigenvalue clustering, relative to ||A||
    # geometry of the symmetrized bidisk
    tol_mod: float = 1e-9         # band around modulus 1 for boundary classification
    # numerical range
    tol_nu: float = 1e-10         # absolute accuracy of the numerical radius
    tol_op: float = 1e-8          # operator-norm slack for contractivity checks
    # varieties and membership
    tol_memb: float = 1e-8        # membership residual on a pencil variety
    tol_node: float = 1e-9        # two nodes closer than this coincide
    # kernel extension pipeline
    tol_ext: float = 1e-8         # kernel-span and c.n.u.-block leaks, extension residuals
    tol_den: float = 1e-10        # vanishing-denominator guard in the uniqueness formula
    tol_active: float = 1e-9      # a Pick matrix this singular is "active"
    tol_dil: float = 1e-8         # admissibility: D^2 vs I - Mp Mp*, intertwining, [Ms, Mp]
    tol_fund_rel: float = 1e-8    # fundamental-equation residual, relative to ||Ms||
    # realization formula
    tol_id: float = 1e-9          # agreement of the two inner-defect computations
    tol_inner: float = 1e-9       # max boundary unitarity defect for PASS
    tol_interp: float = 1e-8      # node reproduction of interpolants
    # discretization knobs
    dist_guard: float = 0.1       # min eigenvalue-to-circle distance, relative to radius:
                                  # sets the branch trace's disk radius and guards the disks
                                  # of linalg.spectral_projection
    n_theta: int = 33             # warm-start scan of the numerical-radius level set; the
                                  # certificate, not the scan, sets the accuracy (tol_nu)
    n_steps: int = 20             # samples along a branch-trace path

    def __post_init__(self):
        """Reject a value no layer can run with: a float that is not finite and
        positive, a dist_guard of 1 or more (every disk would be ill-placed),
        or an int below 1."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            top = 1 if f.name == "dist_guard" else math.inf
            ok = value >= 1 if f.type == "int" else math.isfinite(value) and 0 < value < top
            if not ok:
                raise InputError(f"bad tolerance value: {f.name} = {value!r}")


DEFAULT = Tolerances()

_FIELD_NAMES = {f.name for f in dataclasses.fields(Tolerances)}


def with_overrides(cfg: Tolerances, **overrides) -> Tolerances:
    """Return a copy of ``cfg`` with the given fields replaced.

    Unknown field names are rejected so that CLI typos fail loudly.
    """
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise InputError(f"unknown tolerance name(s): {sorted(unknown)}")
    return dataclasses.replace(cfg, **overrides)

