#!/usr/bin/env python3
"""Uniqueness varieties of the two classical two-point extremal data.

Datum A: {((0,0), 0), ((1,1/4), -1/2)} with the royal-model kernel.  The
active kernel forces every interpolant to agree on the royal variety
s^2 = 4p, where the closed-form value is -s/2.

Datum B: {((0,0), 0), ((0,1/2), 1/2)} with the {s=0}-model kernel.  The
uniqueness variety is the sheet s = 0 and the forced value is p itself.

The script rebuilds both pipelines from scratch (Pick matrix, null vector,
kernel extension, the branch traces of all nodes in one call), evaluates the
uniqueness formula at all samples of a variety in one stacked call, and
prints its worst deviation from the known interpolants along each variety.
"""

import argparse
import sys

import numpy as np

import symdisk as sd
from symdisk import kernels
from symdisk.pick import gram_on_nodes


def run_datum(name, data, pencil, variety_desc, reference, sampler, n, seed):
    print(f"--- {name}: nodes {list(zip(data.s.tolist(), data.p.tolist()))} "
          f"targets {data.targets.tolist()}")
    K = gram_on_nodes(data, kernels.model(pencil))
    P = sd.pick_matrix(data, K)
    rep = sd.psd_report(P, kernel_diag=K.gram.diagonal())
    print(f"    pick matrix min eigenvalue: {rep.min_eigenvalue:.3e}")
    if rep.null_vector is None:
        print("    kernel is not active; nothing to trace")
        return 1
    model = sd.build_extension(K)
    print(f"    extension block: {model.F.shape[0]} x {model.F.shape[0]}, "
          f"variety {variety_desc}")
    for j, tr in enumerate(sd.branch_trace(model)):
        if isinstance(tr, Exception):
            raise tr
        print(f"    node {j}: {tr.branch_count} branch(es), "
              f"sum error {tr.sum_errors[-1]:.2e}")
    s, p = sampler(np.random.default_rng(seed), n)
    res = sd.unique_value(model, K, rep.null_vector, data.targets, s, p)
    if not res.flags.all():
        print(f"    {n - int(res.flags.sum())} of {n} samples inconclusive")
        return 1
    worst = float(np.abs(res.values - reference(s, p)).max(initial=0.0))
    print(f"    worst |formula - reference| over {n} samples: {worst:.3e}")
    return 0 if worst < 1e-8 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    if args.samples < 0:
        ap.error(f"--samples must be non-negative, got {args.samples}")

    def disk_sample(rng, n):
        r, t = rng.uniform(size=(n, 2)).T
        return 0.9 * np.sqrt(r) * np.exp(2j * np.pi * t)

    def royal_sample(rng, n):
        z = disk_sample(rng, n)
        return 2 * z, z * z

    def sheet_sample(rng, n):
        return np.zeros(n), disk_sample(rng, n)

    bad = run_datum(
        "datum A (royal)",
        sd.PickData((0, 1), (0, 0.25), (0, -0.5)),
        np.array([[0, 2], [0, 0]], dtype=complex),
        "s^2 = 4p",
        lambda s, p: -s / 2,
        royal_sample, args.samples, args.seed)
    bad += run_datum(
        "datum B (sheet)",
        sd.PickData((0, 0), (0, 0.5), (0, 0.5)),
        np.zeros((2, 2), dtype=complex),
        "s = 0",
        lambda s, p: p,
        sheet_sample, args.samples, args.seed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
