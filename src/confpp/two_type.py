"""Two-type configuration calculus: paired transforms and the double convolution.

Pair set functions live on the product lattice ``(eta_plus, eta_minus)``,
which is itself the subset lattice of ``2n`` bits: the paired transform is one
zeta sweep over all of them, and the double covering convolution (ordered
three-partitions in each coordinate) is the covering product of that lattice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .core import Configuration, SetFunction, _same_ground, _Table
from .errors import CapacityError, OverlapError, ValidationError
from .transforms import covering_values, moebius_values, sweep, zeta_values

PAIR_MAX_SITES = 12


@dataclass(frozen=True)
class PairConfiguration:
    """An ordered pair of configurations on one discrete ground."""

    plus: Configuration
    minus: Configuration

    def __post_init__(self):
        _same_ground(self.plus, self.minus)

    @property
    def ground(self):
        return self.plus.ground

    @property
    def disjoint(self):
        return not (self.plus.mask & self.minus.mask)

    def union(self):
        """Superposed configuration; overlapping components are rejected."""
        if not self.disjoint:
            raise OverlapError("pair components share a site")
        return Configuration(self.ground, self.plus.mask | self.minus.mask)


@dataclass(frozen=True)
class PairSetFunction(_Table):
    """Real table over the product lattice, plus-mask major.

    ``values[i, j]`` is the value at plus-mask ``i``, minus-mask ``j``.
    """

    ground: object
    values: np.ndarray

    def _shape(self):
        if self.ground.n_sites > PAIR_MAX_SITES:
            raise CapacityError(
                f"pair tables limited to {PAIR_MAX_SITES} sites per coordinate")
        return (self.ground.n_subsets,) * 2

    def __call__(self, pair):
        return float(self.values[pair.plus.mask, pair.minus.mask])

    __mul__ = partialmethod(_Table._combine, operator.mul)


def pair_product(G1, G2):
    """Tensor pair function ``(eta+, eta-) -> G1(eta+) G2(eta-)``."""
    return PairSetFunction._take(_same_ground(G1, G2),
                                 np.outer(G1.values, G2.values))


def pair_indicator_empty(ground):
    vals = np.zeros((ground.n_subsets, ground.n_subsets))
    vals[0, 0] = 1.0
    return PairSetFunction._take(ground, vals)


def kk_transform(G):
    """Coordinatewise zeta transform; equals the two single-type sweeps.

    The plus-mask major flattening of a pair table is a table on ``2n``
    bits (minus sites low, plus sites high), swept in one pass.
    """
    vals = zeta_values(G.values.reshape(-1), 2 * G.ground.n_sites)
    return PairSetFunction._take(G.ground, vals.reshape(G.values.shape))


def kk_inverse(F):
    """Coordinatewise signed Moebius sweep; exact inverse of the transform."""
    vals = moebius_values(F.values.reshape(-1), 2 * F.ground.n_sites)
    return PairSetFunction._take(F.ground, vals.reshape(F.values.shape))


def conv_star2(G1, G2):
    """Double covering convolution: three-partitions in each coordinate.

    ``H(eta+, eta-)`` sums ``G1(a+, a-) G2(b+, b-)`` over ordered pairs with
    ``a+ u b+ = eta+`` and ``a- u b- = eta-``: the covering product on the
    flattened ``2n``-bit lattice, ``KKinv(KK G1 * KK G2)``.
    """
    ground = _same_ground(G1, G2)
    out = covering_values(G1.values.reshape(-1), G2.values.reshape(-1),
                          2 * ground.n_sites)
    return PairSetFunction._take(ground, out.reshape(G1.values.shape))


def marginal_correlation(k, side):
    """Slice a pair functional at the empty set of the other type."""
    if side == "plus":
        return SetFunction(k.ground, k.values[:, 0])
    if side == "minus":
        return SetFunction(k.ground, k.values[0, :])
    raise ValidationError("side must be 'plus' or 'minus'")


def pair_lp_integral(G, z_plus=1.0, z_minus=1.0):
    """Exact pairing against the product reference measure."""
    wp = G.ground.lp_weights(z_plus)
    wm = G.ground.lp_weights(z_minus)
    return float(wp @ G.values @ wm)


def pair_lenard_check(k, tol=1e-10):
    """:func:`confpp.processes.lenard_pd_check` on the ``2n``-bit lattice.

    ``mu`` is the superset Moebius sweep of ``k * (wt_1 x wt_1)``; the
    witness is the :class:`PairConfiguration` at the least flattened index.
    """
    ground = k.ground
    w = ground.lp_weights(1.0)
    mu = sweep((k.values * np.outer(w, w)).reshape(-1),
               range(2 * ground.n_sites), superset=True, sign=-1.0)
    best = int(np.argmin(mu))
    worst = float(mu[best])
    plus, minus = divmod(best, ground.n_subsets)
    return worst >= -tol, worst, PairConfiguration(
        Configuration(ground, plus), Configuration(ground, minus))
