"""The batched Poisson / mixed-Poisson / superposed sampler and the
estimators that run on its ragged ``(offsets, coords)`` batches.

Counts and cell moments are compared with ``oracles.cell_moments``, the
point-by-point loop, on hand-made configurations (points on shared cell
edges included) and on sampled batches rebuilt as validated
configurations (``oracles.configurations``).  A generator whose uniforms
lie on a k/64 grid forces repeated points, so the redraw path runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confpp.core import BoxWindow, PointConfiguration, split_streams
from confpp.errors import ValidationError
from confpp.processes import (MixedPoisson, Poisson, Superposition,
                              exponential_mixing)
from confpp.samplers import (RunPlan, count_distribution_check,
                             estimate_correlation, sample_batch)

WINDOWS = {1: BoxWindow(((0.0, 1.0),)),
           2: BoxWindow(((0.0, 1.0), (-0.5, 0.5)))}
# two closed cells per window that share the edge x = 0.5
CELLS = {1: [BoxWindow(((0.0, 0.5),)), BoxWindow(((0.5, 1.0),))],
         2: [BoxWindow(((0.0, 0.5), (-0.5, 0.25))),
             BoxWindow(((0.5, 1.0), (-0.25, 0.5)))]}
EDGES = [0.0, 0.25, 0.5, 0.75, 1.0, -0.5, -0.25]
MODELS = [Poisson(2.0), MixedPoisson(exponential_mixing(1.0)),
          Superposition(Poisson(0.7), Poisson(1.3)),
          Superposition(MixedPoisson(exponential_mixing(2.0)), Poisson(0.5))]


def assert_matches_loop(samples, batch, d):
    assert batch.counts.tolist() == [len(g) for g in samples]
    for cells in (CELLS[d][:1], CELLS[d]):
        vals = oracles.cell_moments(samples, cells)
        n = vals.size
        se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        expected = (float(vals.mean()), se)
        assert estimate_correlation(batch, cells) == expected


coordinate = st.one_of(st.sampled_from(EDGES),
                       st.floats(-0.5, 1.0, allow_nan=False))


@st.composite
def configuration_lists(draw):
    d = draw(st.sampled_from([1, 2]))
    window = WINDOWS[d]
    point = st.tuples(*[coordinate] * d).filter(window.contains)
    samples = [PointConfiguration.checked(window, tuple(sorted(set(pts))))
               for pts in draw(st.lists(st.lists(point, max_size=6),
                                        min_size=1, max_size=12))]
    return d, samples


class TestAgainstTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(configuration_lists())
    def test_configurations(self, case):
        d, samples = case
        assert_matches_loop(samples, oracles.point_batch(samples), d)

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(MODELS), d=st.sampled_from([1, 2]),
           size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_sampled_batches(self, model, d, size, seed):
        window = WINDOWS[d]
        batch = sample_batch(model, window, np.random.default_rng(seed),
                             size)
        assert len(batch) == size and batch.overlap_events == 0
        assert_matches_loop(oracles.configurations(batch, window), batch, d)

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(MODELS), n_max=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_count_histogram(self, model, n_max, seed):
        window = WINDOWS[1]
        plan = RunPlan(window, replicas=200, master_seed=seed)
        rep = count_distribution_check(model, window, n_max, plan)
        batch = sample_batch(model, window, split_streams(seed, 1)[0], 200)
        lengths = [len(g) for g in oracles.configurations(batch, window)]
        for rec in rep["per_n"]:
            assert rec["empirical"] == lengths.count(rec["n"]) / 200


class GridRNG:
    """A generator whose uniforms lie on the k/64 grid, so points repeat."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 64) / 64

    def __getattr__(self, name):
        return getattr(self._rng, name)


class OutsideRNG(GridRNG):
    """A generator whose uniforms exceed 1, so points leave the window."""

    def random(self, size=None):
        return self._rng.random(size) + 1.0


class TestRepeatedPoints:
    @pytest.mark.parametrize("model", MODELS)
    def test_forced_collisions_are_redrawn(self, model):
        window = WINDOWS[1]
        batch = sample_batch(model, window, GridRNG(7), 400)
        assert batch.overlap_events > 0
        # raises on a repeated point
        samples = oracles.configurations(batch, window)
        assert len(samples) == 400
        assert_matches_loop(samples, batch, 1)

    def test_sample_poisson_redraws(self):
        """One-sample Poisson draws at z = 4 on the grid repeat points and
        are redrawn."""
        rng, redrawn = GridRNG(8), 0
        for _ in range(300):
            batch = sample_batch(Poisson(4.0), WINDOWS[1], rng, 1)
            gamma, = oracles.configurations(batch, WINDOWS[1])
            assert len(set(gamma.points)) == len(gamma)
            redrawn += batch.overlap_events
        assert redrawn > 0


class TestWindowMembership:
    def test_points_outside_the_window_are_rejected(self):
        for window in WINDOWS.values():
            with pytest.raises(ValidationError):
                sample_batch(MODELS[0], window, OutsideRNG(1), 50)
            with pytest.raises(ValidationError):
                for _ in range(50):
                    sample_batch(MODELS[0], window, OutsideRNG(1), 1)


class TestInputs:
    def test_rejects_other_models(self):
        with pytest.raises(ValidationError):
            sample_batch("gibbs", WINDOWS[1], np.random.default_rng(1), 3)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValidationError):
            estimate_correlation([], CELLS[1][:1])
        empty = sample_batch(MODELS[0], WINDOWS[1], np.random.default_rng(3),
                             0)
        assert len(empty) == 0
        with pytest.raises(ValidationError, match="nonempty PointBatch"):
            estimate_correlation(empty, CELLS[1][:1])

    def test_a_list_of_configurations_is_rejected(self):
        samples = [PointConfiguration.checked(WINDOWS[1], ((0.1,),))]
        with pytest.raises(ValidationError, match="nonempty PointBatch"):
            estimate_correlation(samples, CELLS[1][:1])

    def test_cell_dimension_must_match(self):
        batch = sample_batch(MODELS[0], WINDOWS[1], np.random.default_rng(2),
                             5)
        with pytest.raises(ValidationError):
            estimate_correlation(batch, CELLS[2][:1])
