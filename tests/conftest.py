import numpy as np
import pytest

from confpp.core import DiscreteGround
from confpp.generators import BirthDeathKernel


def pure_death_kernel(ground):
    """Unit per-point death, no birth."""
    death = np.ones((ground.n_sites, 1))  # the one column, omega = 0
    return BirthDeathKernel(ground, death, np.zeros_like(death), 0)


@pytest.fixture
def ground4():
    return DiscreteGround((0.7, 1.2, 0.5, 0.9))


@pytest.fixture
def ground6():
    return DiscreteGround((0.7, 1.2, 0.5, 0.9, 1.1, 0.6))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
