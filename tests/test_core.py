import math

import numpy as np
import pytest

from confpp.core import (BoxWindow, Configuration, DiscreteGround, SetFunction,
                         constant_function, count_in, indicator_empty,
                         lp_integral, lp_integral_mc, lp_truncation_tail,
                         make_ground, ground_to_json, power_function,
                         split_streams)
from confpp.errors import CapacityError, ValidationError


class TestDiscreteGround:
    def test_basic_properties(self):
        g = DiscreteGround((0.5, 1.0, 2.0))
        assert g.n_sites == 3
        assert g.n_subsets == 8
        assert g.total_mass == 3.5
        assert list(g.subset_size) == [0, 1, 1, 2, 1, 2, 2, 3]
        assert g.subset_mass[0b111] == pytest.approx(1.0)
        assert g.subset_mass[0b101] == pytest.approx(1.0)

    def test_site_cap(self):
        with pytest.raises(CapacityError):
            DiscreteGround((1.0,) * 25)
        DiscreteGround((1.0,) * 24)  # at the cap is fine

    def test_invalid_weights(self):
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, 0.0))
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, -2.0))
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, float("nan")))

    def test_lp_weights(self):
        g = DiscreteGround((0.5, 2.0))
        w = g.lp_weights(3.0)
        assert w[0] == 1.0
        assert w[0b01] == pytest.approx(1.5)
        assert w[0b10] == pytest.approx(6.0)
        assert w[0b11] == pytest.approx(9.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1.0])
    def test_lp_weights_reject_bad_intensity(self, z):
        with pytest.raises(ValidationError, match="intensity z"):
            DiscreteGround((0.5, 2.0)).lp_weights(z)


class TestBoxWindow:
    def test_volume_and_contains(self):
        w = BoxWindow(((0.0, 2.0), (1.0, 1.5)))
        assert w.dimension == 2
        assert w.volume == pytest.approx(1.0)
        assert w.contains((1.0, 1.2))
        assert not w.contains((3.0, 1.2))
        assert not w.contains((1.0,))

    def test_invalid_box(self):
        with pytest.raises(ValidationError):
            BoxWindow(())
        with pytest.raises(ValidationError):
            BoxWindow(((1.0, 1.0),))
        with pytest.raises(ValidationError):
            BoxWindow(((0.0, float("inf")),))

    def test_contains_box(self):
        w = BoxWindow(((0.0, 1.0),))
        assert w.contains_box(BoxWindow(((0.2, 0.8),)))
        assert not w.contains_box(BoxWindow(((0.2, 1.2),)))

    def test_contains_points_matches_contains(self):
        w = BoxWindow(((0.0, 2.0), (1.0, 1.5)))
        rows = np.array([[0.0, 1.0], [2.0, 1.5], [1.0, 1.2], [2.0, 1.6],
                         [-1e-300, 1.2], [1.0, 0.9], [0.5, 1.5]])
        assert w.contains_points(rows).tolist() == [
            w.contains(tuple(r)) for r in rows.tolist()]
        assert w.contains_points(np.empty((0, 2))).shape == (0,)
        with pytest.raises(ValidationError):
            w.contains_points(np.zeros((3, 1)))

    def test_sample_uniform_matches_rng_uniform(self):
        w = BoxWindow(((-1.5, 2.0), (0.25, 0.75), (3.0, 7.0)))
        lo = np.array([b[0] for b in w.box])
        hi = np.array([b[1] for b in w.box])
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 2, 64, 0, 1000):
            assert np.array_equal(w.sample_uniform(ours, n),
                                  ref.uniform(lo, hi, size=(n, 3)))
        assert ours.random() == ref.random()  # same stream position

    @pytest.mark.parametrize("box", [((-1.5, 2.0),),
                                     ((-1.5, 2.0), (0.25, 0.75)),
                                     ((-1.5, 2.0), (0.25, 0.75), (3.0, 7.3))])
    def test_sample_point_matches_sample_uniform(self, box):
        w = BoxWindow(box)
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            x = w.sample_point(ours)
            row = w.sample_uniform(ref, 1)[0]
            assert type(x) is tuple and all(type(c) is float for c in x)
            assert x == tuple(row.tolist())
        assert ours.random() == ref.random()  # same stream position


class TestGroundSerialization:
    def test_round_trip(self):
        for spec in ({"kind": "discrete", "weights": [0.5, 1.5]},
                     {"kind": "continuum", "box": [[0.0, 1.0], [0.0, 2.0]]}):
            assert ground_to_json(make_ground(spec)) == spec

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            make_ground({"kind": "triangular"})
        with pytest.raises(ValidationError):
            make_ground([1, 2, 3])


class TestConfiguration:
    def test_discrete_mask(self):
        g = DiscreteGround((1.0, 1.0, 1.0))
        c = Configuration(g, 0b101)
        assert len(c) == 2
        assert c.sites == (0, 2)
        c2 = c.with_point(1)
        assert c2.mask == 0b111
        with pytest.raises(ValidationError):
            c.with_point(0)
        assert c.without_point(2).mask == 0b001

    def test_continuum_points(self):
        w = BoxWindow(((0.0, 1.0),))
        c = Configuration(w, points=((0.2,), (0.5,)))
        assert len(c) == 2
        with pytest.raises(ValidationError):
            Configuration(w, points=((0.5,), (0.2,)))  # unsorted
        with pytest.raises(ValidationError):
            Configuration(w, points=((0.2,), (0.2,)))  # duplicate
        with pytest.raises(ValidationError):
            Configuration(w, points=((1.5,),))  # outside

    def test_continuum_with_and_without_point(self):
        w = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
        c = Configuration(w, points=((0.2, 0.9), (0.5, 0.1)))
        for p in ((0.1, 0.5), (0.3, 0.3), (0.5, 0.05), (0.9, 0.9)):
            added = c.with_point(p)
            assert added == Configuration(
                w, points=tuple(sorted(c.points + (p,))))
            assert added.without_point(p) == c
        assert c.with_point([0.0, 1.0]).points[0] == (0.0, 1.0)
        with pytest.raises(ValidationError):
            c.with_point((0.5, 0.1))  # duplicate
        with pytest.raises(ValidationError):
            c.with_point((1.5, 0.1))  # outside
        with pytest.raises(ValidationError):
            c.with_point((0.5,))  # wrong dimension
        with pytest.raises(ValidationError):
            c.with_point((float("nan"), 0.5))

    def test_without_absent_point(self):
        w = BoxWindow(((0.0, 1.0),))
        c = Configuration(w, points=((0.2,), (0.5,)))
        for p in ((0.3,), (0.9,), (0.0,)):
            with pytest.raises(ValidationError):
                c.without_point(p)
        with pytest.raises(ValidationError):
            Configuration(w).without_point((0.5,))

    def test_count_in(self):
        g = DiscreteGround((1.0,) * 4)
        c = Configuration(g, 0b1011)
        assert count_in(c, [0, 1]) == 2
        assert count_in(c, [2]) == 0
        w = BoxWindow(((0.0, 1.0),))
        cc = Configuration(w, points=((0.1,), (0.6,)))
        assert count_in(cc, BoxWindow(((0.0, 0.5),))) == 1


class TestSetFunction:
    def test_call_and_algebra(self):
        g = DiscreteGround((1.0, 2.0))
        F = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
        assert F(0b10) == 3.0
        assert F(Configuration(g, 0b11)) == 4.0
        G = F + F
        assert G(0b01) == 4.0
        assert (2.0 * F)(0b01) == 4.0
        assert (F - F)(0b11) == 0.0
        assert (F * F)(0b01) == 4.0

    def test_validation(self):
        g = DiscreteGround((1.0, 2.0))
        with pytest.raises(ValidationError):
            SetFunction(g, [1.0, 2.0])
        with pytest.raises(ValidationError):
            SetFunction(g, [1.0, 2.0, np.inf, 4.0])

    def test_immutable(self):
        g = DiscreteGround((1.0,))
        F = SetFunction(g, [1.0, 2.0])
        with pytest.raises(ValueError):
            F.values[0] = 5.0

    def test_json_round_trip(self):
        g = DiscreteGround((1.0, 2.0))
        F = SetFunction(g, [1.0, -2.0, 3.5, 4.0])
        back = SetFunction.from_json(F.to_json())
        assert np.array_equal(back.values, F.values)
        assert back.ground == F.ground


class TestLpIntegral:
    def test_constant(self):
        g = DiscreteGround((0.5, 2.0))
        total = lp_integral(constant_function(g), 1.0)
        assert total == pytest.approx((1 + 0.5) * (1 + 2.0))

    def test_indicator_empty(self):
        g = DiscreteGround((0.5, 2.0))
        assert lp_integral(indicator_empty(g), 7.0) == 1.0

    def test_power_function(self):
        g = DiscreteGround((0.5, 2.0))
        val = lp_integral(power_function(g, 2.0), 1.0)
        assert val == pytest.approx((1 + 2 * 0.5) * (1 + 2 * 2.0))

    def test_truncation_tail_bound(self):
        # remainder of exp(a) after n_max terms is below the bound
        a = 1.3
        n_max = 6
        exact_tail = math.exp(a) - sum(a ** k / math.factorial(k)
                                       for k in range(n_max + 1))
        assert exact_tail <= lp_truncation_tail(1.3, 1.0, n_max)


class TestLpIntegralMC:
    def test_constant_function_integral(self):
        w = BoxWindow(((0.0, 1.0),))
        G = lambda gamma: 1.0
        est, se = lp_integral_mc(G, 1.0, w, n_max=12, samples_per_order=50,
                                 seed=5)
        assert est == pytest.approx(math.e, rel=1e-6)

    def test_nontrivial_functional(self):
        # G(gamma) = prod over points of x-coordinate; exact value e^{z/2}
        w = BoxWindow(((0.0, 1.0),))
        def G(gamma):
            out = 1.0
            for p in gamma.points:
                out *= p[0]
            return out
        est, se = lp_integral_mc(G, 2.0, w, n_max=10,
                                 samples_per_order=4000, seed=9)
        assert abs(est - math.e) <= 5 * se + 1e-3

    def test_deterministic(self):
        w = BoxWindow(((0.0, 1.0),))
        G = lambda gamma: float(len(gamma))
        a = lp_integral_mc(G, 1.0, w, 6, 100, seed=3)
        b = lp_integral_mc(G, 1.0, w, 6, 100, seed=3)
        assert a == b

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_intensity(self, z):
        w = BoxWindow(((0.0, 1.0),))
        with pytest.raises(ValidationError, match="intensity z"):
            lp_integral_mc(lambda gamma: 1.0, z, w, 4, 10, seed=1)


class TestStreams:
    def test_independent_reproducible(self):
        s1 = split_streams(42, 3)
        s2 = split_streams(42, 3)
        for a, b in zip(s1, s2):
            assert a.random() == b.random()
        s3 = split_streams(43, 1)
        assert s3[0].random() != split_streams(42, 1)[0].random()
