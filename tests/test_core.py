import dataclasses
import math
import re

import numpy as np
import pytest

from confpp.core import (BoxWindow, Configuration, DiscreteGround,
                         PointConfiguration, SetFunction, constant_function,
                         indicator_empty, lp_integral, lp_integral_mc,
                         make_ground, power_function, split_streams)
from confpp import samplers
from confpp.errors import CapacityError, EvaluationError, ValidationError
from confpp.samplers import (PointBatch, RunPlan, sample_gibbs_bd,
                             strauss_spec)


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

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_subset_size_is_a_read_only_popcount(self, n):
        size = DiscreteGround((1.0,) * n).subset_size
        assert size.dtype == np.int64 and not size.flags.writeable
        assert size.tolist() == [bin(m).count("1") for m in range(1 << n)]

    def test_invalid_weights(self):
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, 0.0))
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, -2.0))
        with pytest.raises(ValidationError):
            DiscreteGround((1.0, float("nan")))

    @pytest.mark.parametrize("weights", [("1", True), (1.0, True), ("12",),
                                         "12", (1.0, None), None, 3])
    def test_weights_must_be_numbers(self, weights):
        # float() takes "1" and True; the constructor does not
        with pytest.raises(ValidationError, match="needs 'weights'"):
            DiscreteGround(weights)

    def test_numpy_numbers_pass(self):
        rng = np.random.default_rng(0)
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, 3)))
        assert all(type(w) is float for w in g.weights)
        assert DiscreteGround((np.int64(2), np.float32(0.5))).weights == (
            2.0, 0.5)

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

    @pytest.mark.parametrize("box", [(("0", True),), ((0.0, True),),
                                     ((0.0, None),), (("01",),), ("01",),
                                     ((0.0, 1.0, 2.0),), None, 5])
    def test_bounds_must_be_number_pairs(self, box):
        with pytest.raises(ValidationError, match="needs 'box'"):
            BoxWindow(box)

    def test_numpy_bounds_pass(self):
        w = BoxWindow(((np.float64(0.25), np.int64(1)),))
        assert w.box == ((0.25, 1.0),)
        assert all(type(b) is float for b in w.box[0])

    @pytest.mark.parametrize("box", [((0.0, 2.0),),
                                     ((0.0, 2.0), (1.0, 1.5)),
                                     ((0.0, 2.0), (1.0, 1.5), (-3.0, -0.25))])
    def test_contains_points_matches_contains(self, box):
        w, d = BoxWindow(box), len(box)
        mid = [(lo + hi) / 2 for lo, hi in box]
        rows = [mid, [lo for lo, _ in box], [hi for _, hi in box]]
        for k, (lo, hi) in enumerate(box):
            for x in (lo, hi, np.nextafter(lo, -np.inf),
                      np.nextafter(hi, np.inf), math.nan, math.inf, -math.inf):
                rows.append(mid[:k] + [float(x)] + mid[k + 1:])
        rows = np.array(rows)
        want = [all(lo <= x <= hi for x, (lo, hi) in zip(row, box))
                for row in rows.tolist()]
        assert w.contains_points(rows).tolist() == want
        for row, inside in zip(rows, want):
            for point in (tuple(row.tolist()), tuple(row), row.tolist(), row):
                got = w.contains(point)
                assert type(got) is bool and got == inside
        for short_or_long in (mid[:-1], mid + mid[:1]):
            for point in (tuple(short_or_long), short_or_long,
                          np.array(short_or_long)):
                assert w.contains(point) is False
        assert w.contains_points(np.empty((0, d))).shape == (0,)
        for cols in (d - 1, d + 1):
            with pytest.raises(ValidationError):
                w.contains_points(np.zeros((3, cols)))

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
        g = make_ground({"kind": "discrete", "weights": [0.5, 1.5]})
        assert g == DiscreteGround((0.5, 1.5)) and g.weights == (0.5, 1.5)
        w = make_ground({"kind": "continuum", "box": [[0.0, 1.0], [0, 2]]})
        assert w == BoxWindow(((0.0, 1.0), (0.0, 2.0)))
        assert w.box == ((0.0, 1.0), (0.0, 2.0))

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            make_ground({"kind": "triangular"})
        with pytest.raises(ValidationError):
            make_ground([1, 2, 3])

    @pytest.mark.parametrize("spec", [
        {"kind": "continuum"},
        {"kind": "continuum", "box": 5},
        {"kind": "continuum", "box": [[0, 1, 2]]},
        {"kind": "continuum", "box": [[0, "one"]]},
        {"kind": "discrete"},
        {"kind": "discrete", "weights": [1, None]},
        {"kind": "discrete", "weights": 3},
    ])
    def test_malformed_field(self, spec):
        with pytest.raises(ValidationError, match="needs '(box|weights)'"):
            make_ground(spec)

    def test_the_models_own_errors_pass_through(self):
        with pytest.raises(ValidationError, match="finite and positive"):
            make_ground({"kind": "discrete", "weights": [1.0, -1.0]})
        with pytest.raises(CapacityError):
            make_ground({"kind": "discrete", "weights": [1.0] * 30})
        with pytest.raises(ValidationError, match="nonempty and finite"):
            make_ground({"kind": "continuum", "box": [[1.0, 0.0]]})


class TestConfiguration:
    def test_discrete_mask(self):
        g = DiscreteGround((1.0, 1.0, 1.0))
        c = Configuration(g, 0b101)
        assert len(c) == 2
        assert c.sites == (0, 2)

    def test_continuum_points(self):
        w = BoxWindow(((0.0, 1.0),))
        c = PointConfiguration.checked(w, ((0.2,), (0.5,)))
        assert len(c) == 2
        with pytest.raises(ValidationError, match="sorted"):
            PointConfiguration.checked(w, ((0.5,), (0.2,)))
        with pytest.raises(ValidationError, match="duplicate"):
            PointConfiguration.checked(w, ((0.2,), (0.2,)))
        with pytest.raises(ValidationError, match="outside"):
            PointConfiguration.checked(w, ((1.5,),))

    @pytest.mark.parametrize("mask", [True, False, 1.0, "1", None])
    def test_mask_must_be_an_integer(self, mask):
        with pytest.raises(ValidationError, match="not an integer"):
            Configuration(DiscreteGround((1.0, 1.0)), mask)

    @pytest.mark.parametrize("mask", [3, np.int64(3), np.uint8(3)])
    def test_integer_masks_are_stored_as_int(self, mask):
        c = Configuration(DiscreteGround((1.0, 1.0)), mask)
        assert type(c.mask) is int and c.mask == 3
        assert c == Configuration(DiscreteGround((1.0, 1.0)), 3)

    @pytest.mark.parametrize("points, shown", [
        (((True,),), "(True,)"), ((("0.5",),), "('0.5',)"),
        (((None,),), "(None,)"), ((0.5,), "0.5")])
    def test_checked_points_must_be_numbers(self, points, shown):
        w = BoxWindow(((0.0, 1.0),))
        with pytest.raises(ValidationError, match=re.escape(
                f"point {shown} is not a list of numbers")):
            PointConfiguration.checked(w, points)

    def test_checked_takes_numpy_numbers(self):
        w = BoxWindow(((0.0, 1.0),))
        c = PointConfiguration.checked(w, ((np.float32(0.5),), (np.int64(1),)))
        assert c.points == ((0.5,), (1.0,))
        assert all(type(x) is float for p in c.points for x in p)

    def test_validated_build_is_the_point_type(self):
        w = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
        pts = ((0.2, 0.9), (0.5, 0.1))
        c = PointConfiguration.checked(w, [list(p) for p in pts])
        assert type(c) is PointConfiguration
        assert c == PointConfiguration(w, pts)
        assert hash(c) == hash(PointConfiguration(w, pts))
        assert PointConfiguration.checked(w, np.array(pts)) == c
        assert PointConfiguration.checked(w, ()) == PointConfiguration(w)

    def test_ground_kind_decides_the_type(self):
        w = BoxWindow(((0.0, 1.0),))
        g = DiscreteGround((1.0, 1.0, 1.0))
        for mask in (0, 1):
            with pytest.raises(ValidationError, match="not a discrete"):
                Configuration(w, mask)
        with pytest.raises(ValidationError, match="continuum window"):
            PointConfiguration.checked(g, ((0.5,),))
        with pytest.raises(ValidationError, match="out of range"):
            Configuration(g, 0b1000)
        with pytest.raises(ValidationError, match="not a discrete"):
            Configuration("ground", 0)
        c = Configuration(g, 0b101)
        assert type(c) is Configuration and len(c) == 2
        assert not hasattr(c, "points")

    @pytest.mark.parametrize("c, field", [
        (Configuration(DiscreteGround((1.0, 1.0)), 0b01), "mask"),
        (PointConfiguration.checked(BoxWindow(((0.0, 1.0),)), ((0.5,),)),
         "points"),
        (samplers._configuration(BoxWindow(((0.0, 1.0),)), ((0.5,),)),
         "points"),
    ])
    def test_immutable(self, c, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, getattr(c, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.ground = None

    def test_trusted_build_is_the_constructor(self):
        w = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
        pts = ((0.25, 0.5), (0.5, 0.25))
        c = samplers._configuration(w, pts)
        assert type(c) is PointConfiguration and not hasattr(c, "__dict__")
        assert c == PointConfiguration(w, pts)
        assert hash(c) == hash(PointConfiguration(w, pts))

    def test_samplers_build_the_point_type(self):
        """``lp_integral_mc`` hands ``G`` point configurations, and the chain
        hands its states out as one ``PointBatch``."""
        w = BoxWindow(((0.0, 1.0),))
        seen = set()

        def G(gamma):
            seen.add(type(gamma))
            return 1.0

        lp_integral_mc(G, 2.0, w, 3, 4, seed=1)
        assert seen == {PointConfiguration}
        chain = sample_gibbs_bd(strauss_spec(2.0, 0.5, 0.1),
                                RunPlan(w, 5, 1, burn_in=20))
        assert type(chain) is PointBatch and len(chain) == 5


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

    @pytest.mark.parametrize("values", [np.arange(4.0), np.arange(4),
                                        [0.0, 1.0, 2.0, 3.0]])
    def test_copies_the_callers_table(self, values):
        F = SetFunction(DiscreteGround((1.0, 2.0)), values)
        values[0] = 7
        assert F.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert not np.shares_memory(F.values, np.asarray(values))
        assert np.asarray(values).flags.writeable


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

    @pytest.mark.parametrize("n_max, samples", [(-1, 10), (3, 0)])
    def test_rejects_bad_orders_and_sample_counts(self, n_max, samples):
        w = BoxWindow(((0.0, 1.0),))
        with pytest.raises(ValidationError, match="n_max >= 0"):
            lp_integral_mc(lambda gamma: 1.0, 1.0, w, n_max, samples, seed=1)

    def test_rejects_a_discrete_ground(self):
        g = DiscreteGround((1.0, 1.0))
        with pytest.raises(ValidationError, match="continuum window"):
            lp_integral_mc(lambda gamma: 1.0, 1.0, g, 3, 10, seed=1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_non_finite_value_raises(self, bad, order):
        w = BoxWindow(((0.0, 1.0),))

        def G(gamma):
            return bad if len(gamma) == order else 1.0

        with pytest.raises(EvaluationError, match="non-finite") as err:
            lp_integral_mc(G, 1.0, w, 3, 5, seed=1)
        assert len(err.value.configuration) == order

    @pytest.mark.parametrize("window, z, n_max, samples, seed, value", [
        (BoxWindow(((0.0, 1.0),)), 1.0, 6, 50, 3,
         (2.3293272869899977, 0.06555955240496701)),
        (BoxWindow(((0.0, 1.0), (-0.5, 0.5))), 2.0, 5, 40, 4,
         (15.525284613164072, 0.5109224977723592)),
    ])
    def test_golden(self, window, z, n_max, samples, seed, value):
        """Values recorded when the draws went through a separate
        one-configuration builder; ``G`` weights each point by its rank,
        so the sort order and every coordinate count."""
        def G(gamma):
            return math.fsum((i + 1) * sum(p)
                             for i, p in enumerate(gamma.points))

        assert lp_integral_mc(G, z, window, n_max, samples, seed) == value

    def test_repeated_point_is_redrawn(self, monkeypatch):
        w = BoxWindow(((0.0, 1.0),))
        draw = BoxWindow.sample_uniform
        calls = []

        def repeat_first(self, rng, n):
            """The first two-point draw repeats its point."""
            calls.append(n)
            u = draw(self, rng, n)
            if calls == [1, 2]:
                u[:] = 0.5
            return u

        monkeypatch.setattr(BoxWindow, "sample_uniform", repeat_first)
        seen = []
        lp_integral_mc(lambda gamma: seen.append(gamma.points) or 1.0, 1.0,
                       w, 2, 1, seed=1)
        assert calls == [1, 2, 2]
        assert len(seen[2]) == 2 and seen[2][0] != seen[2][1]

    def test_point_outside_the_window_is_rejected(self, monkeypatch):
        w = BoxWindow(((0.0, 1.0),))
        draw = BoxWindow.sample_uniform
        monkeypatch.setattr(BoxWindow, "sample_uniform",
                            lambda self, rng, n: draw(self, rng, n) + 1.0)
        with pytest.raises(ValidationError, match="outside the window"):
            lp_integral_mc(lambda gamma: 1.0, 1.0, w, 2, 3, seed=1)


class TestStreams:
    def test_independent_reproducible(self):
        s1 = split_streams(42, 3)
        s2 = split_streams(42, 3)
        for a, b in zip(s1, s2):
            assert a.random() == b.random()
        s3 = split_streams(43, 1)
        assert s3[0].random() != split_streams(42, 1)[0].random()
