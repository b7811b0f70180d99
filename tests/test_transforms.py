import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confpp import transforms
from confpp.core import (DiscreteGround, SetFunction, constant_function,
                         indicator_empty, lp_integral, power_function)
from confpp.errors import GroundMismatchError, ValidationError
from confpp.transforms import (conv_disjoint, conv_union, exp_vector,
                               k_inverse, k_transform, minlos_pairing,
                               norm_fit, poly_bound_check)
from oracles import (covering_conv, disjoint_pair_sum, k_inverse_naive,
                     k_transform_naive)

G5 = DiscreteGround((0.7, 1.2, 0.5, 0.9, 1.1))


def _random_sf(ground, rng):
    return SetFunction(ground, rng.standard_normal(ground.n_subsets))


class TestKTransform:
    def test_against_naive(self, rng):
        G = _random_sf(G5, rng)
        fast = k_transform(G).values
        slow = k_transform_naive(G).values
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_inverse_against_naive(self, rng):
        F = _random_sf(G5, rng)
        assert np.max(np.abs(k_inverse(F).values
                             - k_inverse_naive(F).values)) < 1e-12

    def test_round_trip_both_orders(self, rng):
        G = _random_sf(G5, rng)
        assert np.max(np.abs(k_inverse(k_transform(G)).values
                             - G.values)) < 1e-12
        assert np.max(np.abs(k_transform(k_inverse(G)).values
                             - G.values)) < 1e-12

    def test_indicator_empty_maps_to_one(self):
        F = k_transform(indicator_empty(G5))
        assert np.array_equal(F.values, np.ones(G5.n_subsets))

    def test_exp_vector_transform(self):
        # K maps the multiplicative vector of f to that of 1 + f
        f = [0.3, 1.1, 0.7, 0.2, 0.5]
        lhs = k_transform(exp_vector(G5, f)).values
        rhs = exp_vector(G5, [1 + v for v in f]).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_linearity(self, rng):
        G1, G2 = _random_sf(G5, rng), _random_sf(G5, rng)
        lhs = k_transform(G1 + 2.0 * G2).values
        rhs = k_transform(G1).values + 2.0 * k_transform(G2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, vals):
        g = DiscreteGround((1.0, 0.5, 2.0))
        G = SetFunction(g, vals)
        back = k_inverse(k_transform(G)).values
        assert np.max(np.abs(back - G.values)) < 1e-9


class TestConvolutions:
    def test_disjoint_unit(self, rng):
        G = _random_sf(G5, rng)
        out = conv_disjoint(G, indicator_empty(G5))
        assert np.max(np.abs(out.values - G.values)) < 1e-12

    def test_union_unit(self, rng):
        G = _random_sf(G5, rng)
        out = conv_union(G, indicator_empty(G5))
        assert np.max(np.abs(out.values - G.values)) < 1e-12

    def test_commutativity(self, rng):
        G1, G2 = _random_sf(G5, rng), _random_sf(G5, rng)
        for conv in (conv_disjoint, conv_union):
            assert np.max(np.abs(conv(G1, G2).values
                                 - conv(G2, G1).values)) < 1e-12

    def test_associativity(self, rng):
        G1, G2, G3 = (_random_sf(G5, rng) for _ in range(3))
        for conv in (conv_disjoint, conv_union):
            lhs = conv(conv(G1, G2), G3).values
            rhs = conv(G1, conv(G2, G3)).values
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_binomial_identity(self):
        out = conv_disjoint(power_function(G5, 1.3), power_function(G5, 0.4))
        assert np.max(np.abs(out.values
                             - power_function(G5, 1.7).values)) < 1e-12

    def test_fourier_for_union_conv(self, rng):
        # conv_union is itself Kinv(KG1 * KG2), so the covering side of the
        # identity goes through the enumeration oracle
        G1, G2 = _random_sf(G5, rng), _random_sf(G5, rng)
        union = SetFunction(G5, covering_conv(G1.values, G2.values))
        lhs = k_transform(union).values
        rhs = k_transform(G1).values * k_transform(G2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_ground_mismatch(self, rng):
        other = DiscreteGround((1.0, 1.0))
        with pytest.raises(GroundMismatchError):
            conv_disjoint(_random_sf(G5, rng), _random_sf(other, rng))

    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_conv_of_indicators(self, a, b):
        # indicator convolution: nonzero only at disjoint unions
        g = DiscreteGround((1.0, 1.0, 1.0))
        va = np.zeros(8); va[a] = 1.0
        vb = np.zeros(8); vb[b] = 1.0
        out = conv_disjoint(SetFunction(g, va), SetFunction(g, vb)).values
        if a & b:
            assert np.all(out == 0.0)
        else:
            expected = np.zeros(8); expected[a | b] = 1.0
            assert np.array_equal(out, expected)


class TestMinlosPairing:
    def test_identity_random(self, rng):
        for _ in range(10):
            H, G1, G2 = (_random_sf(G5, rng) for _ in range(3))
            lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_identity_other_z(self, rng):
        H, G1, G2 = (_random_sf(G5, rng) for _ in range(3))
        for z in (0.5, 2.0):
            lhs, rhs = minlos_pairing(H, G1, G2, z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_constant_h_reduces_to_product(self):
        # H = 1: both sides factor into the two lattice integrals
        H = constant_function(G5)
        G1 = power_function(G5, 0.3)
        G2 = power_function(G5, 0.6)
        lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
        assert lhs == pytest.approx(rhs)
        assert lhs == pytest.approx(
            lp_integral(conv_disjoint(G1, G2), 1.0))

    def test_rhs_calls_no_sweep_or_convolution(self, rng, monkeypatch):
        w = G5.lp_weights(0.7)  # its site masses come from a sweep
        h, g1, g2 = (rng.standard_normal(G5.n_subsets) for _ in range(3))

        def forbidden(*args, **kwargs):
            raise AssertionError("the enumerated side must not call this")

        for name in ("sweep", "conv_disjoint", "ranked_products"):
            monkeypatch.setattr(transforms, name, forbidden)
        rhs = transforms._disjoint_pair_sum(h, g1 * w, g2 * w)
        assert rhs == pytest.approx(disjoint_pair_sum(h, g1 * w, g2 * w),
                                    rel=1e-12)
        with pytest.raises(AssertionError):  # the transform side does
            minlos_pairing(*(SetFunction(G5, v) for v in (h, g1, g2)), 0.7)

    def test_rhs_moves_with_one_h_entry(self, rng):
        # integer tables and unit weights: every sum is exact
        g = DiscreteGround((1.0,) * 7)
        h = rng.integers(-5, 6, g.n_subsets).astype(float)
        g1, g2 = rng.integers(1, 6, (2, g.n_subsets)).astype(float)
        m = 0b1011010
        tampered = h.copy()
        tampered[m] += 1.0

        def rhs(hv):
            return minlos_pairing(SetFunction(g, hv), SetFunction(g, g1),
                                  SetFunction(g, g2), 1.0)[1]

        moved = disjoint_pair_sum(tampered, g1, g2) - disjoint_pair_sum(
            h, g1, g2)
        assert moved > 0
        assert rhs(tampered) - rhs(h) == moved

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_intensity(self, rng, z):
        H, G1, G2 = (_random_sf(G5, rng) for _ in range(3))
        with pytest.raises(ValidationError, match="intensity z"):
            minlos_pairing(H, G1, G2, z)

    def test_time_gate_16_sites(self, rng):
        # a loop testing all 4^16 mask pairs takes about 5 s here
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, 16)))
        H, G1, G2 = (_random_sf(g, rng) for _ in range(3))
        g.lp_weights(1.0)  # fills the cached site masses before timing
        start = time.perf_counter()
        lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
        elapsed = time.perf_counter() - start
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
        assert elapsed < 2.0


class TestNormFit:
    def test_exact_sup(self):
        k = power_function(G5, 2.0)
        fit = norm_fit(k, 2.0, 0.0)
        assert fit.norm == pytest.approx(1.0)

    def test_witness(self):
        vals = np.ones(G5.n_subsets)
        vals[0b101] = 10.0
        fit = norm_fit(SetFunction(G5, vals), 1.0, 0.0)
        assert fit.attained_at.mask == 0b101
        assert fit.norm == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            norm_fit(power_function(G5, 1.0), 0.0, 0.0)
        with pytest.raises(ValidationError):
            norm_fit(power_function(G5, 1.0), 1.0, -1.0)

    @pytest.mark.parametrize("C, delta", [(math.nan, 0.0), (1.0, math.nan),
                                          (math.inf, 0.0), (1.0, math.inf)])
    def test_rejects_non_finite_scale(self, C, delta):
        with pytest.raises(ValidationError):
            norm_fit(power_function(G5, 1.0), C, delta)

    def test_factorial_scale(self):
        size = G5.subset_size
        import math
        vals = np.array([math.factorial(int(s)) for s in size], dtype=float)
        fit = norm_fit(SetFunction(G5, vals), 1.0, 1.0)
        assert fit.norm == pytest.approx(1.0)


class TestPolyBound:
    def test_bounded_support(self, rng):
        vals = np.zeros(G5.n_subsets)
        sel = G5.subset_size <= 2
        vals[sel] = rng.uniform(-1.0, 1.0, int(sel.sum()))
        C, N, holds = poly_bound_check(SetFunction(G5, vals))
        assert N <= 2 and holds

    def test_constant(self):
        C, N, holds = poly_bound_check(indicator_empty(G5))
        assert (C, N, holds) == (1.0, 0, True)
