#!/usr/bin/env python3
"""Randomized audit of the distinguished-variety equivalences.

For each seeded random numerical contraction the script compares three
verdicts that the theory says coincide: the spectral c.n.u. test, the strict
region audit of the variety samples, and the sampled boundary-property check.
It also confirms that no sample ever lands in the forbidden mixed region R2,
and runs the PU-family check (c.n.u. verdict vs. reducing-subspace witness
search) on random projection/unitary pairs.
"""

import argparse
import sys
import time

from symdisk.sweeps import equivalence_sweep, pu_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=200, help="contractions to sample")
    ap.add_argument("--pu-cases", type=int, default=100, help="(P, U) pairs to sample")
    ap.add_argument("--dim", type=int, default=5, help="max matrix dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    # the PU sweep draws orders 2..min(dim, 4)
    if args.dim < 2:
        ap.error(f"--dim must be at least 2, got {args.dim}")
    if args.cases < 0 or args.pu_cases < 0:
        ap.error("--cases and --pu-cases must be non-negative")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")

    t0 = time.monotonic()
    eq = equivalence_sweep(n_cases=args.cases, d_max=args.dim, seed=args.seed)
    print(f"equivalence sweep: {eq.n_cases} cases, {eq.n_failures} failures "
          f"({time.monotonic() - t0:.1f}s)")
    for case, why in eq.failures[:10]:
        print(f"  case {case}: {why}")

    t0 = time.monotonic()
    pu = pu_sweep(n_cases=args.pu_cases, d_max=min(args.dim, 4), seed=args.seed)
    print(f"pu-family sweep:   {pu.n_cases} cases, {pu.n_failures} failures "
          f"({time.monotonic() - t0:.1f}s)")
    for case, why in pu.failures[:10]:
        print(f"  case {case}: {why}")

    return 0 if (eq.passed and pu.passed) else 1


if __name__ == "__main__":
    sys.exit(main())
