"""Every operation on two or more operands checks that they share one ground.

Each case builds its operands on two grounds with the same site count and
different weights, so the tables have matching shapes and only the ground
differs; every entry point must raise :class:`GroundMismatchError`.
"""

import operator

import numpy as np
import pytest

from conftest import pure_death_kernel
from confpp.core import Configuration, DiscreteGround, SetFunction
from confpp.errors import GroundMismatchError
from confpp.generators import (LatticeOperator, check_adjoint_leibniz,
                               hat_L_action, pairing)
from confpp.processes import (convolve_measures, papangelou_of_table,
                              poisson_table)
from confpp.transforms import conv_disjoint, conv_union, minlos_pairing
from confpp.two_type import (PairConfiguration, PairSetFunction, conv_star2,
                             pair_product)

A = DiscreteGround((0.7, 1.2, 0.5))
B = DiscreteGround((0.7, 1.2, 0.6))


def _sf(ground):
    return SetFunction(ground, np.linspace(0.5, 1.5, ground.n_subsets))


def _pair(ground):
    n = ground.n_subsets
    return PairSetFunction(ground, np.arange(n * n, dtype=float).reshape(n, n))


def _lattice(ground):
    return LatticeOperator(ground, np.eye(ground.n_subsets))


def _moves(ground):
    return hat_L_action(pure_death_kernel(ground))


CASES = {
    "add": lambda: _sf(A) + _sf(B),
    "sub": lambda: _sf(A) - _sf(B),
    "mul": lambda: _sf(A) * _sf(B),
    "conv_disjoint": lambda: conv_disjoint(_sf(A), _sf(B)),
    "conv_union": lambda: conv_union(_sf(A), _sf(B)),
    "minlos_pairing-first": lambda: minlos_pairing(_sf(A), _sf(B), _sf(A),
                                                   1.0),
    "minlos_pairing-second": lambda: minlos_pairing(_sf(A), _sf(A), _sf(B),
                                                    1.0),
    "pair_configuration": lambda: PairConfiguration(Configuration(A, 1),
                                                    Configuration(B, 2)),
    "pair_mul": lambda: _pair(A) * _pair(B),
    "pair_product": lambda: pair_product(_sf(A), _sf(B)),
    "conv_star2": lambda: conv_star2(_pair(A), _pair(B)),
    "lattice_apply": lambda: _lattice(A).apply(_sf(B)),
    "lattice_adjoint_apply": lambda: _lattice(A).adjoint_apply(_sf(B)),
    "moves_apply": lambda: _moves(A).apply(_sf(B)),
    "moves_adjoint_apply": lambda: _moves(A).adjoint_apply(_sf(B)),
    "pairing": lambda: pairing(_sf(A), _sf(B)),
    "check_adjoint_leibniz": lambda: check_adjoint_leibniz(_moves(A), _sf(A),
                                                           _sf(B)),
    "convolve_measures": lambda: convolve_measures(poisson_table(A, 1.0),
                                                   poisson_table(B, 1.0)),
    "papangelou_of_table": lambda: papangelou_of_table(
        poisson_table(A, 1.0), Configuration(B, 0), 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mismatch_is_rejected(case):
    with pytest.raises(GroundMismatchError, match="different grounds"):
        CASES[case]()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_one_ground_passes(op):
    """Equal grounds that are distinct objects agree."""
    twin = DiscreteGround(A.weights)
    assert twin is not A
    out = op(_sf(A), _sf(twin))
    assert out.ground == A
    assert np.array_equal(out.values, op(_sf(A).values, _sf(A).values))
