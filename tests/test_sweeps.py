import numpy as np

import symdisk as sd
from symdisk import numrange, sweeps, variety
from symdisk.cli import main
from symdisk.sweeps import ginibre_contraction, pu_sweep

SCAN_33 = sd.with_overrides(sd.DEFAULT, n_theta=33)


class _Draws:
    """Stands in for a Generator: each normal() call returns the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def normal(self, size):
        return np.full(size, self.values.pop(0))


def _count_numerical_radius(monkeypatch) -> list:
    calls = []
    original = numrange.numerical_radius

    def counted(F, cfg=sd.DEFAULT):
        calls.append(1)
        return original(F, cfg)

    for module in (numrange, variety, sweeps):
        monkeypatch.setattr(module, "numerical_radius", counted)
    return calls


class TestGinibreContraction:
    def test_small_scalar_stays_a_numerical_contraction(self):
        # |z| = 0.169: nu is certified to tol_nu/2 absolute, which dividing
        # by an unnormalized nu turned into a relative excess of 2.7e-10
        F = ginibre_contraction(_Draws(0.011371022973829786, 0.23882469510828042), 1, SCAN_33)
        assert abs(F[0, 0]) <= 1.0 + SCAN_33.tol_nu
        assert sd.PencilVariety(F, SCAN_33).nu <= 1.0 + SCAN_33.tol_nu

    def test_verify_seed_5_with_33_scan_angles(self, capsys):
        assert main(["verify", "--seed", "5", "--tol-n-theta=33"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_radius_close_to_one(self, rng):
        for d in range(1, 7):
            nu = sd.numerical_radius(ginibre_contraction(rng, d))
            assert 1.0 - 1e-9 <= nu <= 1.0 + sd.DEFAULT.tol_nu


class TestPuSweep:
    def test_one_numerical_radius_per_case(self, monkeypatch):
        calls = _count_numerical_radius(monkeypatch)
        assert pu_sweep(n_cases=10, seed=3).passed
        assert len(calls) == 10

    def test_non_contraction_is_a_case_failure(self, monkeypatch):
        pu_matrix = sweeps._pu_matrix
        monkeypatch.setattr(sweeps, "_pu_matrix", lambda P, U, cfg: 1.5 * pu_matrix(P, U, cfg))
        result = pu_sweep(n_cases=3, seed=3)
        assert result.n_failures == 3
        assert all("not a numerical contraction" in why for _, why in result.failures)


def test_g_closure_check_reuses_the_stored_radius(monkeypatch):
    V = sd.PencilVariety(np.diag([1.0, 0.5, 0.0]).astype(complex))
    audit = sd.region_audit(V)
    calls = _count_numerical_radius(monkeypatch)
    assert sd.distinguished_property_check(V, audit.s, audit.p, g_closure_only=True)
    assert not sd.distinguished_property_check(V, audit.s, audit.p)
    assert calls == []
