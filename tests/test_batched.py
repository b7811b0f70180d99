"""Batched Papangelou evaluators against their scalar forms.

The scalar evaluators are the reference.  Both Strauss forms sum squared
coordinate differences axis by axis and decide a neighbour by ``<= R**2``
alone, so they must agree bit for bit: on the grid k/32, where every squared
distance is exact and ties at distance exactly R occur; off the grid; and at
the edges of the scalar form's first-coordinate window, where a point one
ulp beyond ``fl(x0 +- R)`` can still pass the distance test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confpp.core import (BoxWindow, Configuration, DiscreteGround,
                         PointConfiguration)
from confpp.errors import StabilityError, ValidationError
from confpp.processes import PapangelouSpec, pairwise_gibbs_spec
from confpp.samplers import (RunPlan, detailed_balance_residual,
                             sample_gibbs_bd, strauss_spec, verify_gnz)

WINDOWS = {1: BoxWindow(((0.0, 1.0),)),
           2: BoxWindow(((0.0, 1.0), (0.0, 1.0)))}
GRID = st.integers(0, 32).map(lambda k: k / 32)


def _scalar(spec, gamma, proposals):
    return np.array([spec(gamma, tuple(u)) for u in proposals.tolist()])


@st.composite
def strauss_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    pts = draw(st.lists(st.tuples(*[GRID] * d), unique=True, max_size=12))
    proposals = draw(st.lists(st.tuples(*[GRID] * d), min_size=1,
                              max_size=16))
    beta = draw(st.floats(0.01, 50.0))
    g = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    R = draw(st.integers(1, 16)) / 32
    gamma = PointConfiguration.checked(WINDOWS[d], tuple(sorted(pts)))
    return gamma, np.array(proposals, dtype=float), (beta, g, R)


class TestStraussBatch:
    @given(strauss_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar(self, case):
        gamma, proposals, args = case
        spec = strauss_spec(*args)
        points = np.array(gamma.points).reshape(len(gamma),
                                                proposals.shape[1])
        assert np.array_equal(spec.batched(points, proposals),
                              _scalar(spec, gamma, proposals))

    @given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), unique=True,
                 max_size=10),
        st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), min_size=1,
                 max_size=10))),
        st.floats(1e-6, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_off_grid(self, case, R):
        pts, proposals = case
        d = len(proposals[0])
        gamma = PointConfiguration.checked(WINDOWS[d], tuple(sorted(pts)))
        spec = strauss_spec(3.0, 0.4, R)
        props = np.array(proposals)
        assert np.array_equal(
            spec.batched(np.array(gamma.points).reshape(-1, d), props),
            _scalar(spec, gamma, props))

    @pytest.mark.parametrize("p, x, R, counted", [
        ((0.31, 0.077), (0.6, 0.031), 0.2936256119618995, True),
        ((0.316, 0.315), (0.351, 0.647), 0.33383978193139296, False),
    ])
    def test_rounding_ties_2d(self, p, x, R, counted):
        # R * R is the rounded sum d0*d0 + d1*d1 or falls just below it; a
        # dot product (BLAS may fuse or reorder) can round the other way
        spec = strauss_spec(2.0, 0.5, R)
        d0, d1 = p[0] - x[0], p[1] - x[1]
        assert (d0 * d0 + d1 * d1 <= R * R) == counted
        expected = 1.0 if counted else 2.0
        gamma = PointConfiguration.checked(WINDOWS[2], (p,))
        assert spec(gamma, x) == expected
        assert spec.batched(np.array([p]), np.array([x])).tolist() == [
            expected]

    @staticmethod
    def _edge_cases(x0, R, d, y):
        """One-point configurations at fl(x0 - R) and fl(x0 + R) and their
        two nearest floats on each side; with the proposal at x0 in the
        first coordinate and at y in the others."""
        proposal = (x0,) + (y,) * (d - 1)
        for edge in (x0 - R, x0 + R):
            below = math.nextafter(edge, -math.inf)
            above = math.nextafter(edge, math.inf)
            for p in (math.nextafter(below, -math.inf), below, edge, above,
                      math.nextafter(above, math.inf)):
                if 0.0 <= p <= 1.0:
                    yield (PointConfiguration.checked(
                        WINDOWS[d], ((p,) + (y,) * (d - 1),)),
                           proposal)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("x0, R, counted", [
        # fl(0.3 - 0.2) = 0.09999999999999998; the float below it still
        # passes the distance test
        (0.3, 0.2, 0.09999999999999996),
        # fl(0.09 + 0.25) = 0.33999999999999997; so does the float above it
        (0.09, 0.25, 0.34),
    ])
    def test_window_edge_examples(self, d, x0, R, counted):
        spec = strauss_spec(2.0, 0.5, R)
        assert (counted - x0) ** 2 <= R * R
        assert not (x0 - R) <= counted <= (x0 + R)
        for gamma, x in self._edge_cases(x0, R, d, 0.5):
            value = spec(gamma, x)
            assert value == spec.batched(np.array(gamma.points),
                                         np.array([x]))[0]
            if gamma.points[0][0] == counted:
                assert value == 1.0  # beta * g: one neighbour

    @given(st.floats(0.0, 1.0), st.floats(1e-6, 0.5),
           st.sampled_from([1, 2]), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_window_edges(self, x0, R, d, y):
        spec = strauss_spec(2.0, 0.5, R)
        for gamma, x in self._edge_cases(x0, R, d, y):
            assert spec(gamma, x) == spec.batched(np.array(gamma.points),
                                                  np.array([x]))[0]

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_gamma_and_exact_radius(self, d):
        R = 0.25
        spec = strauss_spec(2.0, 0.5, R)
        empty = np.empty((0, d))
        props = np.full((3, d), 0.5)
        assert spec.batched(empty, props).tolist() == [2.0] * 3
        # one neighbour at exactly R, one just beyond, one on the proposal
        points = np.full((1, d), 0.5)
        props = np.full((3, d), 0.5)
        props[0, 0] += R
        props[1, 0] = np.nextafter(props[0, 0], 1.0)
        assert spec.batched(points, props).tolist() == [1.0, 2.0, 1.0]

    def test_hard_core(self):
        spec = strauss_spec(3.0, 0.0, 0.125)
        points = np.array([[0.25], [0.5]])
        props = np.array([[0.0], [0.125], [0.375], [0.875]])
        # 0^0 = 1 away from every point, 0 within R of one or more
        assert spec.batched(points, props).tolist() == [3.0, 0.0, 0.0, 3.0]
        assert spec.batched(points[:0], props).tolist() == [3.0] * 4


class TestPairwiseBatch:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
        st.integers(0, 2 ** n - 1),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=8),
        st.floats(0.01, 5.0))))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar(self, case):
        n, entries, mask, proposals, z = case
        ground = DiscreteGround((1.0,) * n)
        J = np.array(entries).reshape(n, n)
        spec = pairwise_gibbs_spec(ground, J + J.T, z=z)
        gamma = Configuration(ground, mask)
        expected = [spec(gamma, x) for x in proposals]
        assert spec.batched(np.array(gamma.sites, dtype=int),
                            np.array(proposals)).tolist() == expected


def _both_paths(evaluator, batch, r_max):
    return [PapangelouSpec(evaluator, batch, r_max),
            PapangelouSpec(evaluator, r_max=r_max)]


class TestErrorPaths:
    @pytest.mark.parametrize("d", [1, 2])
    def test_lying_bound(self, d):
        strauss = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(WINDOWS[d], replicas=1, master_seed=1, burn_in=50)
        for spec in _both_paths(strauss.evaluator, strauss.batch,
                                1.0):
            with pytest.raises(StabilityError):
                sample_gibbs_bd(spec, plan)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_invalid_intensity(self, bad):
        plan = RunPlan(WINDOWS[2], replicas=32, master_seed=2, burn_in=50)
        for spec in _both_paths(
                lambda gamma, x: bad,
                lambda points, proposals: np.full(proposals.shape[:-1], bad),
                None):
            with pytest.raises(ValidationError):
                sample_gibbs_bd(spec, plan)
            with pytest.raises(ValidationError):
                detailed_balance_residual(spec, plan)

    def test_invalid_intensity_in_gnz_rhs(self):
        # NaN only near the right edge, which the 5000 right-hand-side
        # proposals per state are sure to reach
        def evaluator(gamma, x):
            return math.nan if x[0] > 0.999 else 1.0

        def batch(points, proposals):
            return np.where(proposals[..., 0] > 0.999, math.nan, 1.0)

        plan = RunPlan(WINDOWS[1], replicas=32, master_seed=3, burn_in=0,
                       proposal_points=5000)
        for spec in _both_paths(evaluator, batch, None):
            with pytest.raises(ValidationError):
                verify_gnz(spec, lambda gamma, x: 1.0, plan)


class TestChainPath:
    def test_chain_never_calls_batch(self):
        def batch(points, proposals):
            raise AssertionError("the chain made a batched call")

        strauss = strauss_spec(20.0, 0.3, 0.1)
        spec = PapangelouSpec(strauss.evaluator, batch, strauss.r_max)
        plan = RunPlan(WINDOWS[2], replicas=20, master_seed=4, burn_in=200)
        assert (oracles.point_tuples(sample_gibbs_bd(spec, plan))
                == oracles.point_tuples(sample_gibbs_bd(strauss, plan)))
        assert (detailed_balance_residual(spec, plan)
                == detailed_balance_residual(strauss, plan))

    def test_lying_bound_on_deaths(self):
        seen = set()

        def evaluator(gamma, x):
            # births draw fresh points, so a repeated x is a death
            if x in seen:
                return 5.0
            seen.add(x)
            return 1.0

        spec = PapangelouSpec(evaluator, r_max=2.0)
        plan = RunPlan(WINDOWS[1], replicas=1, master_seed=1, burn_in=200)
        with pytest.raises(StabilityError):
            sample_gibbs_bd(spec, plan)
