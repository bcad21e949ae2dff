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

    for module in (numrange, sweeps):
        monkeypatch.setattr(module, "numerical_radii", counted)
    return calls


def _pu_draws(seed: int, n_cases: int, d_max: int = 4) -> list:
    """(P, U, k, r) per case of a plain case-by-case pu_sweep loop.

    Every fourth pair is W (P1 (+) P2, U1 (+) U2) W* with P1, U1 diagonal of
    order k and rank P2 = r; k and r are None on the other cases.
    """
    rng = np.random.default_rng(seed)
    out = []
    for case in range(n_cases):
        d = int(rng.integers(2, d_max + 1))
        if case % 4 != 3:
            U = haar_unitary(rng, d)
            out.append((random_projection(rng, d), U, None, None))
            continue
        k = int(rng.integers(1, d))
        P1 = rng.integers(0, 2, k)
        U1 = np.exp(2j * np.pi * rng.uniform(size=k))
        U2 = haar_unitary(rng, d - k)
        r = int(rng.integers(1, d - k)) if d - k >= 2 else int(rng.integers(0, 2))
        V = haar_unitary(rng, d - k)
        W = haar_unitary(rng, d)
        P = np.zeros((d, d), dtype=complex)
        U = np.zeros((d, d), dtype=complex)
        P[:k, :k] = np.diag(P1)
        P[k:, k:] = V[:, :r] @ V[:, :r].conj().T
        U[:k, :k] = np.diag(U1)
        U[k:, k:] = U2
        out.append((W @ P @ W.conj().T, W @ U @ W.conj().T, k, r))
    return out


def _pu_pairs(seed: int, n_cases: int, d_max: int = 4) -> list:
    """The pairs (P, U) of a plain case-by-case pu_sweep loop."""
    return [(P, U) for P, U, _, _ in _pu_draws(seed, n_cases, d_max)]


def _pu_cases(seed: int, n_cases: int, d_max: int = 4) -> list:
    """The matrices PU + U*(I-P) of a plain case-by-case pu_sweep loop."""
    return [numrange._pu_matrix(P, U, sd.DEFAULT) for P, U in _pu_pairs(seed, n_cases, d_max)]


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


def _unit_draws(seed: int, n_cases: int, d_max: int = 5) -> list:
    """The unit Ginibre draws of a plain case-by-case equivalence_sweep loop, in draw order."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(n_cases):
        d = int(rng.integers(1, d_max + 1))
        out.append(sweeps._unit_ginibre(rng, d))
        if case % 4 == 3:
            k = int(rng.integers(1, d + 1))
            rng.uniform()
            if d > k:
                out.append(sweeps._unit_ginibre(rng, d - k))
            haar_unitary(rng, d)
    return out


def _record_audited(monkeypatch) -> list:
    """Every variety the sweeps hand to region_audit, in order."""
    seen = []
    original = sweeps.region_audit

    def recorded(Vs, p_grid=None, cfg=sd.DEFAULT):
        seen.extend(Vs)
        return original(Vs, p_grid, cfg)

    monkeypatch.setattr(sweeps, "region_audit", recorded)
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

    def test_witness_search_takes_the_sweep_spectrum(self, monkeypatch):
        # each PU + U*(I-P) has its spectrum taken once, for the verdict, and
        # the witness search takes none
        import symdisk.linalg as linalg
        spectrum = linalg.spectrum
        seen = []

        def recorded(A):
            a = np.asarray(A, dtype=complex)
            seen.append((a.shape, a.tobytes()))
            return spectrum(A)

        for module in (linalg, numrange, variety):
            monkeypatch.setattr(module, "spectrum", recorded)
        assert pu_sweep(n_cases=20, seed=3).passed
        cases = [(T.shape, T.tobytes()) for T in _pu_cases(3, 20)]
        assert sorted(seen) == sorted(cases)

    def test_witnesses_match_the_public_search(self):
        # on the pairs of the verify seeds 0-19, the sweep's search finds the
        # witness pu_witness_search finds from (P, U), so no verdict of verify moves
        found_any = False
        for seed in range(20):
            for P, U in _pu_pairs(seed, 100):
                found = numrange._pu_witness(P, U, sd.DEFAULT)
                ref = sd.pu_witness_search(P, U)
                if found is None or ref is None:
                    assert found is ref
                else:
                    found_any = True
                    assert len(found) == len(ref)
                    assert all(np.array_equal(a, b) for a, b in zip(found, ref))
        assert found_any


def test_radius_counter_sees_the_one_matrix_call(monkeypatch):
    calls = _count_numerical_radii(monkeypatch)
    sd.PencilVariety(np.diag([1.0, 0.5]).astype(complex))
    assert len(calls) == 1 and len(calls[0]) == 1


class TestDrawOrder:
    """The blocked sweeps consume the random stream as a case-by-case loop does."""
    N_CASES = 2 * sweeps._BLOCK + 3   # crosses two block boundaries

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_cases(self, monkeypatch, seed):
        seen = _record_audited(monkeypatch)
        assert sweeps.equivalence_sweep(n_cases=self.N_CASES, seed=seed).passed
        expected = _equivalence_cases(seed, self.N_CASES)
        assert len(seen) == len(expected)
        assert all(np.array_equal(V.F, G) for V, G in zip(seen, expected))

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_nu_from_the_draw_certificates(self, monkeypatch, seed):
        # nu of each scaled or planted F comes from its draws' certificates,
        # and keeps the tol_nu contract of a certificate of F itself
        seen = _record_audited(monkeypatch)
        assert sweeps.equivalence_sweep(n_cases=self.N_CASES, seed=seed).passed
        tol = sd.DEFAULT.tol_nu
        for V in seen:
            assert abs(V.nu - sd.numerical_radius(V.F)) <= tol
            assert V.nu <= 1.0 + tol

    def test_certify_blocks_cross_audit_blocks(self, monkeypatch):
        # certify blocks that end inside an audit block change no matrix
        monkeypatch.setattr(sweeps, "_CERTIFY_BLOCK", sweeps._BLOCK + 5)
        audited = _record_audited(monkeypatch)
        assert sweeps.equivalence_sweep(n_cases=self.N_CASES, seed=2).passed
        calls = _count_numerical_radii(monkeypatch)
        assert pu_sweep(n_cases=self.N_CASES, seed=2).passed
        certified = [F for call in calls for F in call]
        for seen, expected in ((audited, _equivalence_cases(2, self.N_CASES)),
                               (certified, _pu_cases(2, self.N_CASES))):
            seen = [getattr(V, "F", V) for V in seen]
            assert len(seen) == len(expected)
            assert all(np.array_equal(F, G) for F, G in zip(seen, expected))

    @pytest.mark.parametrize("seed", range(4))
    def test_pu_cases(self, monkeypatch, seed):
        calls = _count_numerical_radii(monkeypatch)
        assert pu_sweep(n_cases=self.N_CASES, seed=seed).passed
        seen = [F for call in calls for F in call]
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
        # a pullback above 1 makes every scaled draw a non-contraction
        monkeypatch.setattr(sweeps, "_PULLBACK", 1.5)
        built = []

        class Recorded:
            @staticmethod
            def _of_certified(F, nu, cfg):
                built.append(F)
                return variety.PencilVariety._of_certified(F, nu, cfg)

        monkeypatch.setattr(sweeps, "PencilVariety", Recorded)
        with pytest.raises(InputError) as raised:
            sweeps.equivalence_sweep(n_cases=5, seed=1)
        Z = _unit_draws(1, 1)[0]
        nu = sd.numerical_radius(Z)
        assert len(built) == 1 and np.array_equal(built[0], Z * (1.0 / nu) * 1.5)
        with pytest.raises(InputError) as first:
            numrange.check_numerical_contraction(nu * (1.0 / nu) * 1.5)
        assert str(raised.value) == str(first.value)


class TestSweepArguments:
    @pytest.mark.parametrize("sweep, d_min", [(sweeps.equivalence_sweep, 1), (pu_sweep, 2)])
    def test_d_max_below_the_smallest_order(self, sweep, d_min):
        with pytest.raises(InputError, match=f"d_max must be at least {d_min}"):
            sweep(n_cases=3, d_max=d_min - 1)
        assert sweep(n_cases=3, d_max=d_min).passed

    @pytest.mark.parametrize("sweep", [sweeps.equivalence_sweep, pu_sweep])
    def test_negative_case_count(self, sweep):
        with pytest.raises(InputError, match="n_cases must be non-negative"):
            sweep(n_cases=-5)
        assert sweep(n_cases=0).n_cases == 0

    @pytest.mark.parametrize("sweep", [sweeps.equivalence_sweep, pu_sweep])
    def test_negative_seed(self, sweep):
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            sweep(n_cases=2, seed=-1)


def test_verify_certifies_each_draw_once(monkeypatch, capsys):
    # one numerical_radii call per sweep and certify block: the equivalence
    # sweep certifies its unit draws and no scaled F, the PU sweep every T
    draws = _unit_draws(7, 200)
    scaled = _equivalence_cases(7, 200)
    pu_cases = _pu_cases(7, 100)
    calls = _count_numerical_radii(monkeypatch)
    assert main(["verify", "--seed", "7"]) == 0
    assert len(calls) == 2
    for call, expected in zip(calls, (draws, pu_cases)):
        assert len(call) == len(expected)
        assert all(np.array_equal(F, G) for F, G in zip(call, expected))
    certified = [F for call in calls for F in call]
    assert not any(F.shape == G.shape and np.array_equal(F, G)
                   for F in certified for G in scaled)


def test_verify_finds_each_planted_piece(monkeypatch, capsys):
    # verify --seed 7 hands every pair to the witness search, and a planted
    # pair whose second projection is proper has a witness of the planted order k
    found = []
    search = sweeps._pu_witness

    def recorded(P, U, cfg):
        H = search(P, U, cfg)
        found.append((P, U, 0 if H is None else len(H)))
        return H

    monkeypatch.setattr(sweeps, "_pu_witness", recorded)
    assert main(["verify", "--seed", "7"]) == 0
    draws = _pu_draws(7, 100)
    assert len(found) == len(draws)
    planted = proper = 0
    for (P, U, dim), (P0, U0, k, r) in zip(found, draws):
        assert np.array_equal(P, P0) and np.array_equal(U, U0)
        if k is None:
            continue
        planted += 1
        d = P.shape[0]
        if 0 < r < d - k:
            assert dim == k
        proper += 0 < dim < d
    assert planted == 25
    assert proper >= 8
