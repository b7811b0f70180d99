import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confpp.core import Configuration, DiscreteGround, SetFunction, \
    power_function
from confpp.errors import (CapacityError, GroundMismatchError, OverlapError,
                           ValidationError)
from confpp.processes import correlation_functional, poisson_table
from confpp.transforms import k_transform
from confpp.two_type import (PAIR_MAX_SITES, PairConfiguration,
                             PairSetFunction, conv_star2, kk_inverse,
                             kk_transform, marginal_correlation,
                             pair_indicator_empty, pair_lenard_check,
                             pair_lp_integral, pair_product)
from oracles import (double_covering_conv, pair_lenard_pairings,
                     product_weights)

G4 = DiscreteGround((0.7, 1.2, 0.5, 0.9))


def _random_pair(ground, rng):
    n = ground.n_subsets
    return PairSetFunction(ground, rng.standard_normal((n, n)))


class TestPairConfiguration:
    def test_disjoint_union(self):
        pc = PairConfiguration(Configuration(G4, 0b0011),
                               Configuration(G4, 0b1100))
        assert pc.disjoint
        assert pc.union().mask == 0b1111

    def test_overlap_rejected(self):
        pc = PairConfiguration(Configuration(G4, 0b0011),
                               Configuration(G4, 0b0110))
        assert not pc.disjoint
        with pytest.raises(OverlapError):
            pc.union()

    def test_ground_mismatch(self):
        other = DiscreteGround((1.0, 1.0))
        with pytest.raises(GroundMismatchError):
            PairConfiguration(Configuration(G4, 1), Configuration(other, 1))


class TestPairTransform:
    def test_round_trip(self, rng):
        G = _random_pair(G4, rng)
        back = kk_inverse(kk_transform(G)).values
        assert np.max(np.abs(back - G.values)) < 1e-12

    def test_factorizes_on_products(self, rng):
        a = SetFunction(G4, rng.standard_normal(G4.n_subsets))
        b = SetFunction(G4, rng.standard_normal(G4.n_subsets))
        lhs = kk_transform(pair_product(a, b)).values
        rhs = np.outer(k_transform(a).values, k_transform(b).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_fourier_for_double_conv(self, rng):
        # conv_star2 is itself KKinv(KK G1 * KK G2), so the convolution side
        # of the identity goes through the enumeration oracle
        G1, G2 = _random_pair(G4, rng), _random_pair(G4, rng)
        star = PairSetFunction(G4, double_covering_conv(G1.values, G2.values))
        lhs = kk_transform(star).values
        rhs = kk_transform(G1).values * kk_transform(G2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestConvStar2:
    def test_unit(self, rng):
        G = _random_pair(G4, rng)
        out = conv_star2(pair_indicator_empty(G4), G)
        assert np.max(np.abs(out.values - G.values)) < 1e-12

    def test_commutative(self, rng):
        G1, G2 = _random_pair(G4, rng), _random_pair(G4, rng)
        assert np.max(np.abs(conv_star2(G1, G2).values
                             - conv_star2(G2, G1).values)) < 1e-12

    def test_singleton_expansion(self, rng):
        # target ({x}, empty): three ordered covers of {x} in the plus slot
        G1, G2 = _random_pair(G4, rng), _random_pair(G4, rng)
        H = conv_star2(G1, G2)
        x = 1 << 2
        expected = (G1.values[x, 0] * G2.values[0, 0]
                    + G1.values[0, 0] * G2.values[x, 0]
                    + G1.values[x, 0] * G2.values[x, 0])
        assert H.values[x, 0] == pytest.approx(expected)

    def test_mixed_singletons(self, rng):
        # target ({x}, {y}): 3 covers per coordinate, 9 terms total
        G1, G2 = _random_pair(G4, rng), _random_pair(G4, rng)
        H = conv_star2(G1, G2)
        x, y = 1 << 0, 1 << 3
        acc = 0.0
        for ap, bp in ((x, 0), (0, x), (x, x)):
            for am, bm in ((y, 0), (0, y), (y, y)):
                acc += G1.values[ap, am] * G2.values[bp, bm]
        assert H.values[x, y] == pytest.approx(acc)


class TestPairTable:
    def test_call_reads_the_entry_of_the_pair(self, rng):
        G = _random_pair(G4, rng)
        pair = PairConfiguration(Configuration(G4, 0b0101),
                                 Configuration(G4, 0b0011))
        assert G(pair) == G.values[0b0101, 0b0011]
        assert type(G(pair)) is float

    def test_products(self, rng):
        G1, G2 = _random_pair(G4, rng), _random_pair(G4, rng)
        both = G1 * G2
        assert np.array_equal(both.values, G1.values * G2.values)
        assert np.array_equal((G1 * 2.5).values, G1.values * 2.5)
        assert not both.values.flags.writeable


class TestPairFunctionals:
    def test_marginals_of_product(self, rng):
        a = SetFunction(G4, rng.standard_normal(G4.n_subsets))
        b = SetFunction(G4, rng.standard_normal(G4.n_subsets))
        P = pair_product(a, b)
        plus = marginal_correlation(P, "plus").values
        minus = marginal_correlation(P, "minus").values
        assert np.max(np.abs(plus - a.values * b.values[0])) < 1e-12
        assert np.max(np.abs(minus - b.values * a.values[0])) < 1e-12
        with pytest.raises(ValidationError):
            marginal_correlation(P, "sideways")

    def test_lp_integral_factorizes(self):
        P = pair_product(power_function(G4, 0.5), power_function(G4, 0.25))
        val = pair_lp_integral(P, 2.0, 4.0)
        expected = np.prod([1 + w for w in G4.weights]) ** 2
        assert val == pytest.approx(expected)

    def test_lenard_positive_for_product_correlations(self):
        t1, t2 = poisson_table(G4, 0.9), poisson_table(G4, 0.4)
        k = pair_product(correlation_functional(t1), correlation_functional(t2))
        ok, worst, witness = pair_lenard_check(k)
        law = np.outer(t1.probs, t2.probs)
        assert ok
        assert worst == pytest.approx(law.min(), abs=1e-12)
        plus, minus = np.unravel_index(np.argmin(law), law.shape)
        assert (witness.plus.mask, witness.minus.mask) == (plus, minus)

    def test_lenard_rejects_power_product_above_unit_site_intensity(self):
        """z m_i > 1 at site 1 makes the z = 0.9 factor's law negative.

        A power function's certificate is the product law
        ``prod_{i in xi} z m_i prod_{i not in xi} (1 - z m_i)``.
        """
        def law(z):
            return np.array([math.prod(z * m if xi >> i & 1 else 1 - z * m
                                       for i, m in enumerate(G4.weights))
                             for xi in range(G4.n_subsets)])
        k = pair_product(power_function(G4, 0.9), power_function(G4, 0.4))
        ok, worst, _ = pair_lenard_check(k)
        assert not ok
        assert worst == pytest.approx(np.outer(law(0.9), law(0.4)).min(),
                                      abs=1e-12)

    def test_lenard_detects_negative(self):
        vals = np.zeros((G4.n_subsets, G4.n_subsets))
        vals[0, 0] = 1.0
        vals[1, 0] = -5.0
        ok, worst, witness = pair_lenard_check(PairSetFunction(G4, vals))
        assert not ok
        assert worst == pytest.approx(-5.0 * G4.weights[0], abs=1e-12)
        assert (witness.plus.mask, witness.minus.mask) == (1, 0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_lenard_catches_tampered_product_table(self, n):
        """Entry (3, 5) of a product law pushed to -0.09, mass to (0, 0).

        ``k`` is the coordinatewise superset sum of the tampered law over
        ``wt_1 x wt_1``: it drops by ``delta / (wt_1(a) wt_1(b))`` on every
        ``(a, b) != (0, 0)`` below ``(3, 5)``.  Random probes miss this.
        """
        g = DiscreteGround(tuple(np.linspace(0.6, 1.4, n)))
        t1, t2 = poisson_table(g, 0.8), poisson_table(g, 0.5)
        tampered = t1.probs[3] * t2.probs[5]
        delta = tampered + 0.09
        vals = np.outer(correlation_functional(t1).values,
                        correlation_functional(t2).values)
        w = g.lp_weights(1.0)
        for a in (0, 1, 2, 3):
            for b in (0, 1, 4, 5):
                if a or b:
                    vals[a, b] -= delta / (w[a] * w[b])
        ok, worst, witness = pair_lenard_check(PairSetFunction(g, vals))
        assert not ok
        assert worst == pytest.approx(tampered - delta, abs=1e-12)
        assert (witness.plus.mask, witness.minus.mask) == (3, 5)

    def test_capacity_above_pair_cap(self):
        # the cap is checked before the table's shape, so a stand-in will do
        g13 = DiscreteGround((1.0,) * (PAIR_MAX_SITES + 1))
        with pytest.raises(CapacityError):
            PairSetFunction(g13, np.zeros((1, 1)))

    def test_algebra_and_validation(self, rng):
        G = _random_pair(G4, rng)
        assert np.max(np.abs((G * 2.0).values - 2.0 * G.values)) == 0.0
        with pytest.raises(ValidationError):
            PairSetFunction(G4, np.zeros((3, 3)))

    def test_caller_array_stays_writeable(self):
        caller = np.zeros((4, 4))
        P = PairSetFunction(DiscreteGround((1.0, 1.0)), caller)
        assert caller.flags.writeable and not P.values.flags.writeable
        assert not np.shares_memory(caller, P.values)
        caller[0, 0] = 1.0
        assert P.values[0, 0] == 0.0


@given(n=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(n=0, seed=1)
@example(n=3, seed=1)
@settings(max_examples=15, deadline=None)
def test_pair_lenard_matches_superset_oracle(n, seed):
    rng = np.random.default_rng(seed)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    k = _random_pair(g, rng)
    mu = pair_lenard_pairings(k.values, g)
    w = product_weights(g, 1.0)
    slack = 1e-10 * float(np.abs(k.values).ravel() @ np.outer(w, w).ravel())
    ok, worst, witness = pair_lenard_check(k)
    assert abs(worst - mu.min()) <= slack
    assert mu[witness.plus.mask, witness.minus.mask] <= mu.min() + slack
    assert ok == bool(mu.min() >= -1e-10)
