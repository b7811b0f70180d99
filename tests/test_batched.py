"""Batched Papangelou evaluators against their scalar forms.

The scalar evaluators loop over the configuration one point at a time and
are the reference.  Coordinates and interaction radii are drawn from the
grid k/32, where every squared distance is exact, so the two forms must
agree bit for bit, ties at distance exactly R included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confpp.core import BoxWindow, Configuration, DiscreteGround
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
    gamma = Configuration(WINDOWS[d], points=tuple(sorted(pts)))
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

    @given(st.lists(st.floats(0.0, 1.0), unique=True, max_size=10),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
           st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_off_grid_1d(self, pts, proposals, R):
        gamma = Configuration(WINDOWS[1],
                              points=tuple((p,) for p in sorted(pts)))
        spec = strauss_spec(3.0, 0.4, R)
        props = np.array(proposals).reshape(-1, 1)
        assert np.array_equal(
            spec.batched(np.array(gamma.points).reshape(-1, 1), props),
            _scalar(spec, gamma, props))

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


def _both_paths(evaluator, batch, descriptor):
    return [PapangelouSpec(evaluator, descriptor, batch=batch),
            PapangelouSpec(evaluator, descriptor)]


class TestErrorPaths:
    @pytest.mark.parametrize("d", [1, 2])
    def test_lying_bound(self, d):
        strauss = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(WINDOWS[d], replicas=1, master_seed=1, burn_in=50)
        for spec in _both_paths(strauss.evaluator, strauss.batch,
                                dict(strauss.descriptor, r_max=1.0)):
            with pytest.raises(StabilityError):
                sample_gibbs_bd(spec, plan)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_invalid_intensity(self, bad):
        plan = RunPlan(WINDOWS[2], replicas=32, master_seed=2, burn_in=50)
        for spec in _both_paths(
                lambda gamma, x: bad,
                lambda points, proposals: np.full(len(proposals), bad), {}):
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
            return np.where(proposals[:, 0] > 0.999, math.nan, 1.0)

        plan = RunPlan(WINDOWS[1], replicas=32, master_seed=3, burn_in=0,
                       proposal_points=5000)
        for spec in _both_paths(evaluator, batch, {}):
            with pytest.raises(ValidationError):
                verify_gnz(spec, lambda gamma, x: 1.0, plan)
