"""Stacked batch forms and the grouped right-hand sides built on them.

A batch form is a generalized ufunc: leading axes are a stack of
configurations that all have ``n`` points.  The stacked call must give the
per-configuration calls bit for bit, and those the scalar evaluator.  The
verifiers group a block's states by point count and make one stacked call
per group; their sides must equal the one-state-at-a-time loop in
``tests/oracles.py`` bit for bit, on every path and with a proposal that
repeats a point of the state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confpp import samplers
from confpp.core import (BoxWindow, Configuration, DiscreteGround,
                         PointConfiguration, split_streams)
from confpp.errors import ValidationError
from confpp.processes import PapangelouSpec, Poisson, pairwise_gibbs_spec
from confpp.samplers import (RunPlan, constant_h, sample_batch,
                             sample_gibbs_bd, strauss_spec, verify_gnz,
                             verify_mecke)

WINDOWS = {d: BoxWindow(((0.0, 1.0),) * d) for d in (1, 2, 3)}
CELLS = {d: BoxWindow(((0.25, 0.75),) * d) for d in (1, 2, 3)}
# grid points make ties at distance exactly R; the others are off-grid
COORD = st.one_of(st.integers(0, 32).map(lambda k: k / 32),
                  st.floats(0.0, 1.0))
LEADING = st.sampled_from([(), (1,), (4,), (2, 3)])


def _per_configuration(batch, points, proposals, core):
    """``batch`` called on each configuration of the stack, restacked."""
    lead = proposals.shape[:proposals.ndim - core]
    k = int(np.prod(lead, dtype=int))
    flat_points = points.reshape((k,) + points.shape[len(lead):])
    flat_props = proposals.reshape((k,) + proposals.shape[len(lead):])
    values = [batch(p, u) for p, u in zip(flat_points, flat_props)]
    return np.array(values).reshape(lead + flat_props.shape[1:2])


@st.composite
def window_stacks(draw):
    """Sorted point stacks ``(..., n, d)`` and proposals ``(..., m, d)``."""
    d = draw(st.sampled_from([1, 2, 3]))
    lead = draw(LEADING)
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    k = int(np.prod(lead, dtype=int))
    configs = [sorted(draw(st.lists(st.tuples(*[COORD] * d), unique=True,
                                    min_size=n, max_size=n)))
               for _ in range(k)]
    props = draw(st.lists(st.tuples(*[COORD] * d), min_size=k * m,
                          max_size=k * m))
    points = np.array(configs, dtype=float).reshape(lead + (n, d))
    proposals = np.array(props, dtype=float).reshape(lead + (m, d))
    return d, points, proposals


class TestStackedForms:
    @given(window_stacks(), st.floats(0.01, 50.0),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_strauss(self, case, beta, g, r):
        d, points, proposals = case
        spec = strauss_spec(beta, g, r / 32)
        stacked = spec.batched(points, proposals)
        assert stacked.shape == proposals.shape[:-1]
        assert np.array_equal(
            stacked, _per_configuration(spec.batched, points, proposals, 2))
        k, window = int(np.prod(proposals.shape[:-2], dtype=int)), WINDOWS[d]
        scalar = [[spec(PointConfiguration.checked(window, p), tuple(u))
                   for u in us.tolist()]
                  for p, us in zip(points.reshape((k,) + points.shape[-2:])
                                   .tolist(),
                                   proposals.reshape((k,) + proposals.shape[-2:]))]
        assert np.array_equal(stacked.reshape(k, -1),
                              np.array(scalar).reshape(k, -1))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
        st.integers(0, n),
        LEADING,
        st.integers(0, 5),
        st.randoms(use_true_random=False),
        st.floats(0.01, 5.0))))
    @settings(max_examples=200, deadline=None)
    def test_pairwise(self, case):
        n, entries, c, lead, m, rnd, z = case
        ground = DiscreteGround((1.0,) * n)
        J = np.array(entries).reshape(n, n)
        spec = pairwise_gibbs_spec(ground, J + J.T, z=z)
        k = int(np.prod(lead, dtype=int))
        sites = np.array([sorted(rnd.sample(range(n), c)) for _ in range(k)],
                         dtype=int).reshape(lead + (c,))
        proposals = np.array([rnd.randrange(n) for _ in range(k * m)],
                             dtype=int).reshape(lead + (m,))
        stacked = spec.batched(sites, proposals)
        assert stacked.shape == proposals.shape
        assert np.array_equal(
            stacked, _per_configuration(spec.batched, sites, proposals, 1))
        for held, us, values in zip(sites.reshape(k, c),
                                    proposals.reshape(k, m),
                                    stacked.reshape(k, m)):
            gamma = Configuration(ground, sum(1 << s for s in held.tolist()))
            assert values.tolist() == [spec(gamma, x) for x in us.tolist()]

    @given(window_stacks(), st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_h(self, case, value):
        _, points, proposals = case
        h = constant_h(value)
        stacked = h.batch(points, proposals)
        assert stacked.shape == proposals.shape[:-1]
        assert np.array_equal(
            stacked, _per_configuration(h.batch, points, proposals, 2))
        assert np.all(stacked == value)

    def test_unstacked_batch_is_rejected(self):
        """A batch form that ignores the leading axes cannot slip through
        broadcasting: the sides check one value per proposal."""
        strauss = strauss_spec(2.0, 0.5, 0.1)
        spec = PapangelouSpec(strauss.evaluator,
                              lambda points, proposals:
                              np.ones(len(proposals)), strauss.r_max)
        plan = RunPlan(WINDOWS[1], replicas=64, master_seed=3, burn_in=0)
        with pytest.raises(ValidationError, match="shape"):
            verify_gnz(spec, constant_h(), plan)


def h_pair(gamma, x):
    """Other points of the central cell, for x in the cell."""
    cell = CELLS[len(x)]
    if not cell.contains(x):
        return 0.0
    return float(sum(1 for p in gamma.points if p != x and cell.contains(p)))


def h_pair_batch(points, proposals):
    lo, hi = np.array(CELLS[proposals.shape[-1]].box).T

    def inside(a):
        return np.all((lo <= a) & (a <= hi), axis=-1)

    counts = np.count_nonzero(inside(points), axis=-1).astype(float)
    return inside(proposals) * counts[..., np.newaxis]


def _h(form):
    if form == "scalar":
        return h_pair

    def h(gamma, x):
        return h_pair(gamma, x)

    h.batch = h_pair_batch
    return h


def _spec(form, args):
    spec = strauss_spec(*args)
    return spec if form == "native" else PapangelouSpec(spec.evaluator,
                                                        r_max=spec.r_max)


def _blocks(states, proposals):
    block = samplers._BLOCK
    for i in range(0, len(states), block):
        yield (oracles.point_batch(states[i:i + block]),
               np.stack(proposals[i:i + block]))


def _recorded(h, calls):
    """A scalar ``h`` that appends ``(gamma.points, x)`` to ``calls`` on each
    call; a batched ``h`` as it is."""
    if getattr(h, "batch", None) is not None:
        return h

    def recorder(gamma, x):
        calls.append((gamma.points, x))
        return h(gamma, x)

    return recorder


def _with_repeats(states, proposals):
    """Copies of the proposals where some rows repeat a point of their state:
    the first row of every third nonempty state, and every row of one.  The
    second row of every third nonempty state is a near-repeat of its middle
    point, equal to it on every axis but the last, which is one ulp off: a
    repeat check that reads too few axes drops it."""
    proposals = [p.copy() for p in proposals]
    nonempty = [i for i, g in enumerate(states) if len(g)]
    for i in nonempty[::3]:
        proposals[i][0] = states[i].points[-1]
        proposals[i][1] = states[i].points[len(states[i]) // 2]
        proposals[i][1, -1] = np.nextafter(proposals[i][1, -1], 2.0)
    proposals[nonempty[1]][:] = states[nonempty[1]].points[0]
    return proposals


class TestGroupedSides:
    @pytest.mark.parametrize("h_form", ["scalar", "batched"])
    @pytest.mark.parametrize("spec_form", ["native", "scalar"])
    @pytest.mark.parametrize("d, args", [(1, (2.0, 0.5, 0.1)),
                                         (2, (20.0, 0.3, 0.1)),
                                         (3, (20.0, 0.3, 0.1))])
    def test_gnz(self, d, args, spec_form, h_form):
        window, S = WINDOWS[d], 16
        spec, h = _spec(spec_form, args), _h(h_form)
        plan = RunPlan(window, replicas=300, master_seed=d, burn_in=300,
                       thinning=2, proposal_points=S)
        states = oracles.configurations(sample_gibbs_bd(spec, plan), window)
        rng = np.random.default_rng(d)
        proposals = _with_repeats(
            states, [window.sample_uniform(rng, S) for _ in states])
        got = samplers._insertion_sides(_blocks(states, proposals), window,
                                        h, S, window.volume, spec)
        want = oracles.insertion_sides(states, proposals, h, window.volume,
                                       spec)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("h_form", ["scalar", "batched"])
    @pytest.mark.parametrize("d, z", [(1, 2.0), (2, 8.0), (3, 16.0)])
    def test_mecke(self, d, z, h_form):
        window, S, h = WINDOWS[d], 16, _h(h_form)
        rng = np.random.default_rng(10 + d)
        states = oracles.configurations(
            sample_batch(Poisson(z), window, rng, 300), window)
        proposals = _with_repeats(
            states, [window.sample_uniform(rng, S) for _ in states])
        scale = z * window.volume
        ours, theirs = [], []
        got = samplers._insertion_sides(_blocks(states, proposals), window,
                                        _recorded(h, ours), S, scale)
        want = oracles.insertion_sides(states, proposals,
                                       _recorded(h, theirs), scale)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # the same scalar calls in the same order, none on a repeat
        assert ours == theirs
        assert len(ours) > 0 if h_form == "scalar" else not ours

    @pytest.mark.parametrize("d, args", [(1, (2.0, 0.5, 0.1)),
                                         (2, (20.0, 0.3, 0.1)),
                                         (3, (20.0, 0.3, 0.1))])
    def test_batched_forms_build_no_configuration(self, monkeypatch, d,
                                                  args):
        """With a batched h, and a batched spec or none, both sides are
        read from the batch rows alone: no configuration is built."""
        window, S, h = WINDOWS[d], 16, _h("batched")
        spec = strauss_spec(*args)
        plan = RunPlan(window, replicas=300, master_seed=d, burn_in=300,
                       thinning=2, proposal_points=S)
        states = oracles.configurations(sample_gibbs_bd(spec, plan), window)
        rng = np.random.default_rng(d)
        proposals = _with_repeats(
            states, [window.sample_uniform(rng, S) for _ in states])
        want = [oracles.insertion_sides(states, proposals, h, window.volume,
                                        r) for r in (None, spec)]

        def refuse(*args):
            raise AssertionError("a configuration was built")

        monkeypatch.setattr(samplers, "PointConfiguration", refuse)
        for r, sides in zip((None, spec), want):
            got = samplers._insertion_sides(_blocks(states, proposals),
                                            window, h, S, window.volume, r)
            assert all(np.array_equal(a, b) for a, b in zip(got, sides))

    @pytest.mark.parametrize("d, args", [(1, (2.0, 0.5, 0.1)),
                                         (2, (20.0, 0.3, 0.1)),
                                         (3, (20.0, 0.3, 0.1))])
    def test_batched_spec_with_a_scalar_h(self, d, args):
        """A spec's batched form is used whatever h is: with a scalar h the
        right-hand side never calls the spec's scalar evaluator."""
        window, S, h = WINDOWS[d], 16, _h("scalar")
        spec = strauss_spec(*args)
        plan = RunPlan(window, replicas=300, master_seed=d, burn_in=300,
                       thinning=2, proposal_points=S)
        states = oracles.configurations(sample_gibbs_bd(spec, plan), window)
        rng = np.random.default_rng(d)
        proposals = _with_repeats(
            states, [window.sample_uniform(rng, S) for _ in states])
        want = oracles.insertion_sides(states, proposals, h, window.volume,
                                       spec)

        def refuse(gamma, x):
            raise AssertionError("the scalar evaluator was called")

        batch_only = PapangelouSpec(refuse, spec.batch, spec.r_max)
        got = samplers._insertion_sides(_blocks(states, proposals), window,
                                        h, S, window.volume, batch_only)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("h_form", ["scalar", "batched"])
    def test_verifier_streams(self, h_form):
        """The verifiers draw what the per-state loop drew: proposals one
        state after another on a stream of their own; GNZ's states from
        the chain, Mecke's from one ``sample_batch`` call."""
        window, S, h = WINDOWS[2], 8, _h(h_form)
        spec = strauss_spec(20.0, 0.3, 0.1)
        plan = RunPlan(window, replicas=300, master_seed=21, burn_in=200,
                       thinning=2, proposal_points=S)
        rhs_rng = split_streams(plan.master_seed, 2)[1]
        states = oracles.configurations(sample_gibbs_bd(spec, plan), window)
        proposals = [window.sample_uniform(rhs_rng, S) for _ in states]
        lhs, rhs = oracles.insertion_sides(states, proposals, h,
                                           window.volume, spec)
        se, n_eff = samplers._batch_se(lhs - rhs)
        assert verify_gnz(spec, h, plan) == samplers._paired_report(
            "gnz", lhs, rhs, se, n_eff)

        state_rng, rhs_rng = split_streams(plan.master_seed, 2)
        batch = sample_batch(Poisson(8.0), window, state_rng, plan.replicas)
        states = oracles.configurations(batch, window)
        proposals = [window.sample_uniform(rhs_rng, S) for _ in states]
        lhs, rhs = oracles.insertion_sides(states, proposals, h,
                                           8.0 * window.volume)
        assert verify_mecke(8.0, window, h, plan) == samplers._paired_report(
            "mecke", lhs, rhs)


def test_block_size_changes_no_report(monkeypatch):
    """Blocks of 1, 7 and the default number of states give one report per
    verifier, with a scalar and a batched h alike."""
    window, S = WINDOWS[2], 8
    spec = strauss_spec(20.0, 0.3, 0.1)
    plan = RunPlan(window, replicas=300, master_seed=22, burn_in=200,
                   thinning=2, proposal_points=S)

    def reports():
        return {(name, form): verify(_h(form))
                for form in ("scalar", "batched")
                for name, verify in (
                    ("mecke", lambda h: verify_mecke(8.0, window, h, plan)),
                    ("gnz", lambda h: verify_gnz(spec, h, plan)))}

    want = reports()
    for name in ("mecke", "gnz"):
        assert want[name, "scalar"] == want[name, "batched"]
    for block in (1, 7, samplers._BLOCK):
        monkeypatch.setattr(samplers, "_BLOCK", block)
        assert reports() == want


def _rhs_peak_mb(monkeypatch, block):
    """tracemalloc peak of a 5 000-state 1-D Mecke verifier run."""
    monkeypatch.setattr(samplers, "_BLOCK", block)
    plan = RunPlan(WINDOWS[1], replicas=5000, master_seed=31)
    tracemalloc.start()
    try:
        verify_mecke(2.0, WINDOWS[1], constant_h(), plan)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# the blocked run peaks near 1.6 MB; one stack of all 5 000 states (the
# proposals and the per-state arrays they were stacked from, values and
# terms) near 11 MB
RHS_BUDGET_MB = 4.0


def test_rhs_memory_is_blocked(monkeypatch):
    assert _rhs_peak_mb(monkeypatch, samplers._BLOCK) <= RHS_BUDGET_MB
    # the negative control: the same run without blocks exceeds the budget
    assert _rhs_peak_mb(monkeypatch, 10 ** 9) > RHS_BUDGET_MB
