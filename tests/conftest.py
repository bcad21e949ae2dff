import numpy as np
import pytest

import symdisk as sd
from symdisk import kernels
from symdisk.pick import gram_on_nodes


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def royal_F():
    """Pencil of the royal variety s^2 = 4p."""
    return np.array([[0, 2], [0, 0]], dtype=complex)


@pytest.fixture
def jordan_halves():
    """The nu = 1 example with variety ((1+p) - 2s)^2 - 4p = 0."""
    return np.array([[0.5, 1], [0, 0.5]], dtype=complex)


@pytest.fixture
def data_unique():
    """Extremal datum with a unique solution s/2."""
    return sd.PickData((0, 1), (0, 0.25), (0, 0.5))


@pytest.fixture
def data_royal():
    """Extremal datum solved by both -s/2 and (2p-s)/(2-s)."""
    return sd.PickData((0, 1), (0, 0.25), (0, -0.5))


@pytest.fixture
def data_sheet():
    """Extremal datum with uniqueness variety {s = 0}."""
    return sd.PickData((0, 0), (0, 0.5), (0, 0.5))


@pytest.fixture
def kernel_sheet(data_sheet):
    """Model kernel of the {s = 0} variety restricted to the sheet-datum nodes."""
    return gram_on_nodes(data_sheet, kernels.model(np.zeros((2, 2))))


@pytest.fixture
def kernel_royal(data_royal, royal_F):
    """Royal-model kernel restricted to the royal-datum nodes."""
    return gram_on_nodes(data_royal, kernels.model(royal_F))


def random_g_points(rng, n, rmax=0.95):
    pts = []
    for _ in range(n):
        z1 = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z2 = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        pts.append(sd.symmetrize(z1, z2))
    return pts


def disk_beta(x):
    """The closed form beta = (s - conj(s) p) / (1 - |p|^2) of a point with |p| < 1:
    the fundamental operator of a one-node kernel is conj(beta)."""
    return (x.s - np.conj(x.s) * x.p) / (1.0 - abs(x.p) ** 2)
