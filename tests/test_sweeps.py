import numpy as np
import pytest

import symdisk as sd
from symdisk import numrange, sweeps, variety
from symdisk.cli import main
from symdisk.errors import InputError
from symdisk.sweeps import ginibre_contraction, haar_unitary, pu_sweep, random_projection

SCAN_33 = sd.with_overrides(sd.DEFAULT, n_theta=33)


class _Draws:
    """Stands in for a Generator: each normal() call returns the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def normal(self, size):
        return np.full(size, self.values.pop(0))


def _count_numerical_radii(monkeypatch) -> list:
    """The matrices of every numerical_radii call, one list per call; a
    numerical_radius call is a numerical_radii call of one matrix."""
    calls = []
    original = numrange.numerical_radii

    def counted(Fs, cfg=sd.DEFAULT):
        Fs = [np.asarray(F, dtype=complex) for F in Fs]
        calls.append(Fs)
        return original(Fs, cfg)

    for module in (numrange, variety, sweeps):
        monkeypatch.setattr(module, "numerical_radii", counted)
    return calls


def _pu_cases(seed: int, n_cases: int, d_max: int = 4) -> list:
    """The matrices PU + U*(I-P) of a plain case-by-case pu_sweep loop."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_cases):
        d = int(rng.integers(2, d_max + 1))
        U = haar_unitary(rng, d)
        P = random_projection(rng, d)
        out.append(numrange._pu_matrix(P, U, sd.DEFAULT))
    return out


def _equivalence_cases(seed: int, n_cases: int, d_max: int = 5) -> list:
    """The matrices of a plain case-by-case equivalence_sweep loop."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(n_cases):
        d = int(rng.integers(1, d_max + 1))
        F = ginibre_contraction(rng, d)
        if case % 4 == 3:
            k = int(rng.integers(1, d + 1))
            beta = np.exp(2j * np.pi * rng.uniform())
            blocks = np.zeros((d, d), dtype=complex)
            blocks[:k, :k] = beta * np.eye(k)
            if d > k:
                blocks[k:, k:] = ginibre_contraction(rng, d - k)
            W = haar_unitary(rng, d)
            F = W @ blocks @ W.conj().T
        out.append(F)
    return out


def _record_varieties(monkeypatch) -> list:
    """Every matrix the sweeps hand to pencil_varieties, in order."""
    seen = []
    original = sweeps.pencil_varieties

    def recorded(Fs, cfg=sd.DEFAULT):
        seen.extend(Fs)
        return original(Fs, cfg)

    monkeypatch.setattr(sweeps, "pencil_varieties", recorded)
    return seen


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
    def test_each_case_certified_once_per_block(self, monkeypatch):
        calls = _count_numerical_radii(monkeypatch)
        assert pu_sweep(n_cases=10, seed=3).passed
        certified = [F for call in calls for F in call]
        for T in _pu_cases(3, 10):
            assert sum(F.shape == T.shape and np.array_equal(F, T) for F in certified) == 1
        assert len(certified) == 10
        # the 10 cases are one block: at most one call reaches each order
        orders = [{F.shape[0] for F in call} for call in calls]
        for d in set().union(*orders):
            assert sum(d in call for call in orders) <= 1

    def test_non_contraction_is_a_case_failure(self, monkeypatch):
        pu_matrix = sweeps._pu_matrix
        monkeypatch.setattr(sweeps, "_pu_matrix", lambda P, U, cfg: 1.5 * pu_matrix(P, U, cfg))
        result = pu_sweep(n_cases=3, seed=3)
        assert result.n_failures == 3
        assert all("not a numerical contraction" in why for _, why in result.failures)


def test_g_closure_check_reuses_the_stored_radius(monkeypatch):
    V = sd.PencilVariety(np.diag([1.0, 0.5, 0.0]).astype(complex))
    audit = sd.region_audit(V)
    calls = _count_numerical_radii(monkeypatch)
    assert sd.distinguished_property_check(V, audit.s, audit.p, g_closure_only=True)
    assert not sd.distinguished_property_check(V, audit.s, audit.p)
    assert calls == []


def test_radius_counter_sees_the_one_matrix_call(monkeypatch):
    calls = _count_numerical_radii(monkeypatch)
    sd.PencilVariety(np.diag([1.0, 0.5]).astype(complex))
    assert len(calls) == 1 and len(calls[0]) == 1


class TestDrawOrder:
    """The blocked sweeps consume the random stream as a case-by-case loop does."""
    N_CASES = 2 * sweeps._BLOCK + 3   # crosses two block boundaries

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_cases(self, monkeypatch, seed):
        seen = _record_varieties(monkeypatch)
        assert sweeps.equivalence_sweep(n_cases=self.N_CASES, seed=seed).passed
        expected = _equivalence_cases(seed, self.N_CASES)
        assert len(seen) == len(expected)
        assert all(np.array_equal(F, G) for F, G in zip(seen, expected))

    @pytest.mark.parametrize("seed", range(4))
    def test_pu_cases(self, monkeypatch, seed):
        seen = _record_varieties(monkeypatch)
        assert pu_sweep(n_cases=self.N_CASES, seed=seed).passed
        expected = _pu_cases(seed, self.N_CASES)
        assert len(seen) == len(expected)
        assert all(np.array_equal(F, G) for F, G in zip(seen, expected))

    @pytest.mark.parametrize("seed", range(4))
    def test_radii_bit_identical_to_one_matrix_calls(self, seed):
        Fs = _equivalence_cases(seed, self.N_CASES) + _pu_cases(seed, self.N_CASES)
        batched = numrange.numerical_radii(Fs)
        assert batched.tolist() == [sd.numerical_radius(F) for F in Fs]


class TestNonContraction:
    def test_equivalence_raises_the_first_in_case_order(self, monkeypatch):
        seen = []
        original = sweeps.pencil_varieties

        def doubled(Fs, cfg=sd.DEFAULT):
            Fs = [2.0 * F for F in Fs]
            seen.extend(Fs)
            return original(Fs, cfg)

        monkeypatch.setattr(sweeps, "pencil_varieties", doubled)
        with pytest.raises(InputError) as raised:
            sweeps.equivalence_sweep(n_cases=5, seed=1)
        with pytest.raises(InputError) as first:
            sd.PencilVariety(seen[0])
        assert str(raised.value) == str(first.value)
