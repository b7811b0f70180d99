import numpy as np
import pytest

from confpp.core import Configuration, DiscreteGround, SetFunction, \
    power_function
from confpp.errors import GroundMismatchError, OverlapError, ValidationError
from confpp.transforms import k_transform
from confpp.two_type import (PairConfiguration, PairSetFunction, conv_star2,
                             kk_inverse, kk_transform, marginal_correlation,
                             pair_indicator_empty, pair_lenard_check,
                             pair_lp_integral, pair_product)
from oracles import double_covering_conv

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
        k = pair_product(power_function(G4, 0.9), power_function(G4, 0.4))
        ok, worst = pair_lenard_check(k, trials=50, seed=3)
        assert ok and worst >= -1e-10

    def test_lenard_detects_negative(self):
        vals = np.zeros((G4.n_subsets, G4.n_subsets))
        vals[0, 0] = 1.0
        vals[1, 0] = -5.0
        ok, worst = pair_lenard_check(PairSetFunction(G4, vals),
                                      trials=200, seed=3)
        assert not ok and worst < 0

    def test_algebra_and_validation(self, rng):
        G = _random_pair(G4, rng)
        assert np.max(np.abs((G * 2.0).values - 2.0 * G.values)) == 0.0
        with pytest.raises(ValidationError):
            PairSetFunction(G4, np.zeros((3, 3)))
        doc = G.to_json()
        assert len(doc["values"]) == G4.n_subsets ** 2
