"""The sweep-based lattice kernels against the enumeration oracles.

Every fast path is compared with a brute-force transcription of its defining
sum (``oracles.py``) on random tables with zero entries, for n = 0 .. 10
(n <= 4 for the 9^n pair oracle).  A fast path passes when its largest error
is at most ``1e-10`` times the largest sum of absolute values of the terms,
which the same oracle computes on the absolute values of the inputs; the
pairing's enumerated side, a plain sum, is held to ``1e-12`` of that scale.
The disjoint convolution takes the covering oracle's scale instead: its
ranked product sums every covering pair and cancels the overlapping ones.
"""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from confpp.core import DiscreteGround, SetFunction
from confpp.errors import CapacityError, ValidationError
from confpp.processes import (DiscreteTable, convolve_measures,
                              projection_density, recover_correlation)
from confpp.transforms import (RANKED_MAX_SITES, conv_disjoint, conv_union,
                               k_inverse, k_transform, minlos_pairing, sweep)
from confpp.two_type import PairSetFunction, conv_star2, kk_transform

TOL = 1e-10
CASES = dict(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
             zeros=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
SMALL = dict(CASES, n=st.integers(0, 4))


def _lattice(n, seed):
    rng = np.random.default_rng(seed)
    return DiscreteGround(tuple(rng.uniform(0.5, 1.5, n))), rng


def _table(rng, shape, zeros):
    vals = rng.standard_normal(shape)
    vals[rng.random(shape) < zeros] = 0.0
    return vals


def _assert_close(fast, brute, terms):
    """``max |fast - brute| <= TOL * max sum |terms|``."""
    assert np.max(np.abs(fast - brute)) <= TOL * np.max(terms)


def _matches(oracle, fast, *tables):
    _assert_close(fast, oracle(*tables), oracle(*map(np.abs, tables)))


@given(**CASES)
@example(n=0, seed=1, zeros=0.0)
@example(n=1, seed=1, zeros=0.5)
@example(n=10, seed=1, zeros=0.0)
@settings(max_examples=20, deadline=None)
def test_k_transform_pair(n, seed, zeros):
    g, rng = _lattice(n, seed)
    G = SetFunction(g, _table(rng, g.n_subsets, zeros))
    absG = SetFunction(g, np.abs(G.values))
    scale = oracles.k_transform_naive(absG).values
    _assert_close(k_transform(G).values,
                  oracles.k_transform_naive(G).values, scale)
    _assert_close(k_inverse(G).values, oracles.k_inverse_naive(G).values,
                  scale)


@given(**CASES)
@example(n=0, seed=2, zeros=0.0)
@example(n=1, seed=2, zeros=0.5)
@example(n=10, seed=2, zeros=0.0)
# every disjoint product is 0 here, but the ranked product leaves 1.4e-16
# of cancellation residue
@example(n=5, seed=1832876, zeros=0.9)
@settings(max_examples=20, deadline=None)
def test_convolutions(n, seed, zeros):
    g, rng = _lattice(n, seed)
    v1, v2 = (_table(rng, g.n_subsets, zeros) for _ in range(2))
    G1, G2 = SetFunction(g, v1), SetFunction(g, v2)
    # the ranked product sums every covering pair and cancels the ones that
    # overlap, so its rounding scales with the covering terms
    covering_terms = oracles.covering_conv(np.abs(v1), np.abs(v2))
    _assert_close(conv_disjoint(G1, G2).values, oracles.disjoint_conv(v1, v2),
                  covering_terms)
    _matches(oracles.covering_conv, conv_union(G1, G2).values, v1, v2)


@given(**dict(CASES, n=st.integers(0, 9)), z=st.floats(0.1, 4.0))
@example(n=0, seed=6, zeros=0.0, z=1.0)
@example(n=1, seed=6, zeros=0.5, z=2.0)
@example(n=9, seed=6, zeros=0.5, z=0.7)
@settings(max_examples=20, deadline=None)
def test_minlos_pairing_rhs(n, seed, zeros, z):
    g, rng = _lattice(n, seed)
    h, g2 = (_table(rng, g.n_subsets, 0.0) for _ in range(2))
    g1 = _table(rng, g.n_subsets, zeros)
    w = oracles.product_weights(g, z)
    rhs = minlos_pairing(*(SetFunction(g, v) for v in (h, g1, g2)), z)[1]
    want = oracles.disjoint_pair_sum(h, g1 * w, g2 * w)
    terms = oracles.disjoint_pair_sum(*map(np.abs, (h, g1 * w, g2 * w)))
    assert abs(rhs - want) <= 1e-12 * terms


@given(**CASES)
@example(n=0, seed=3, zeros=0.0)
@example(n=1, seed=3, zeros=0.5)
@example(n=10, seed=3, zeros=0.0)
@settings(max_examples=20, deadline=None)
def test_convolve_measures(n, seed, zeros):
    g, rng = _lattice(n, seed)
    probs = []
    for _ in range(2):
        p = np.abs(_table(rng, g.n_subsets, zeros))
        p[rng.integers(g.n_subsets)] = 1.0
        probs.append(p / p.sum())
    out = convolve_measures(*(DiscreteTable(g, p) for p in probs))
    total = oracles.covering_conv(*probs)
    _assert_close(out.probs, total, total)
    _assert_close(out.overlap_probs,
                  total - oracles.disjoint_conv(*probs), total)


@given(**CASES, z=st.sampled_from([0.5, 1.0, 2.0]))
@example(n=0, seed=4, zeros=0.0, z=1.0)
@example(n=1, seed=4, zeros=0.5, z=2.0)
@example(n=10, seed=4, zeros=0.0, z=0.5)
@settings(max_examples=20, deadline=None)
def test_projection_and_recovery(n, seed, zeros, z):
    g, rng = _lattice(n, seed)
    vals = _table(rng, g.n_subsets, zeros)
    f = SetFunction(g, vals)
    norm = oracles.reference_norm(g, z)
    unsigned = oracles.reference_sum(np.abs(vals), g, z, 1.0)
    _assert_close(projection_density(f, z).values,
                  oracles.projection(vals, g, z), norm * unsigned)
    _assert_close(recover_correlation(f, z).values,
                  oracles.recovery(vals, g, z), unsigned / norm)


@given(**SMALL)
@example(n=0, seed=5, zeros=0.0)
@example(n=1, seed=5, zeros=0.5)
@example(n=4, seed=5, zeros=0.0)
@settings(max_examples=15, deadline=None)
def test_pair_kernels(n, seed, zeros):
    g, rng = _lattice(n, seed)
    shape = (g.n_subsets, g.n_subsets)
    v1, v2 = (_table(rng, shape, zeros) for _ in range(2))
    G1, G2 = PairSetFunction(g, v1), PairSetFunction(g, v2)
    _matches(oracles.double_covering_conv, conv_star2(G1, G2).values, v1, v2)
    _assert_close(kk_transform(G1).values,
                  oracles.kk_transform_naive(v1, g),
                  oracles.kk_transform_naive(np.abs(v1), g))


class TestSweep:
    def test_stack_equals_rows(self, rng):
        stack = rng.standard_normal((3, 32))
        rows = [sweep(r.copy(), range(5), superset=True, sign=-1.0,
                      weights=[0.5, 1.0, 2.0, 0.25, 3.0]) for r in stack]
        sweep(stack, range(5), superset=True, sign=-1.0,
              weights=[0.5, 1.0, 2.0, 0.25, 3.0])
        assert np.array_equal(stack, np.array(rows))

    def test_bit_range_sweeps_one_coordinate(self, rng):
        # bits 3..5 of a flattened 8x8 table are the row index
        table = rng.standard_normal((8, 8))
        flat = table.copy()
        sweep(flat.reshape(-1), range(3, 6))
        want = np.array([oracles.k_transform_naive(
            SetFunction(DiscreteGround((1.0,) * 3), col)).values
            for col in table.T]).T
        assert np.max(np.abs(flat - want)) < 1e-12

    def test_exp_vector_is_weighted_sweep_of_empty_indicator(self):
        vals = np.zeros(8)
        vals[0] = 1.0
        sweep(vals, range(3), weights=[2.0, 3.0, 5.0])
        assert vals.tolist() == [1, 2, 3, 6, 5, 10, 15, 30]

    def test_rejects_non_contiguous(self):
        with pytest.raises(ValidationError):
            sweep(np.zeros((4, 4)).T, range(2))

    @pytest.mark.parametrize("shape", [(12,), (3, 12), (0,), ()])
    def test_rejects_a_last_axis_not_a_power_of_two(self, shape):
        table = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValidationError):
            sweep(table, [0, 1] if shape else [])
        assert np.array_equal(table.reshape(-1),
                              np.arange(float(table.size)))

    @pytest.mark.parametrize("sites", [[3], [0, 1, 2, 3], [-1], [0, -1]])
    def test_rejects_sites_outside_the_lattice(self, sites):
        table = np.arange(8.0)
        with pytest.raises(ValidationError):
            sweep(table, sites)
        assert np.array_equal(table, np.arange(8.0))

    @pytest.mark.parametrize("weights", [
        [2.0], [2.0] * 5, [2.0, np.nan, 1.0, 1.0], [1.0, 1.0, -np.inf, 1.0],
        [1.0, "2", 1.0, 1.0], [True] * 4, 2.0])
    def test_rejects_weights_not_one_finite_real_per_site(self, weights):
        table = np.ones(16)
        with pytest.raises(ValidationError):
            sweep(table, range(4), weights=weights)
        assert np.array_equal(table, np.ones(16))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, bool])
    @pytest.mark.parametrize("weights", [None, [2.0] * 4])
    def test_rejects_a_table_not_float64(self, dtype, weights):
        table = np.ones(16, dtype=dtype)
        with pytest.raises(ValidationError):
            sweep(table, range(4), weights=weights)
        assert np.array_equal(table, np.ones(16, dtype=dtype))

    @given(n=st.one_of(st.integers(0, 16), st.sampled_from([18, 21])),
           lead=st.lists(st.integers(1, 3), max_size=2),
           order=st.sampled_from(["ascending", "permuted", "repeated"]),
           superset=st.booleans(), sign=st.sampled_from([1.0, -1.0]),
           weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=21, lead=[], order="ascending", superset=False, sign=1.0,
             weighted=False, seed=1)
    @example(n=12, lead=[2, 3], order="ascending", superset=True, sign=-1.0,
             weighted=True, seed=2)
    @example(n=13, lead=[3], order="repeated", superset=False, sign=-1.0,
             weighted=False, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_bit_oracle_bit_for_bit(
            self, n, lead, order, superset, sign, weighted, seed):
        rng = np.random.default_rng(seed)
        if n > 16:
            lead = [1] * len(lead)  # one table: 2**21 floats are 16 MB
        table = rng.standard_normal((*lead, 1 << n))
        zeros = rng.random(table.shape) < 0.3
        table[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        if order == "ascending":
            sites = list(range(n))
        elif order == "permuted":
            sites = rng.permutation(n).tolist()
        else:  # each site may come back, in any order
            sites = rng.integers(0, max(n, 1), 2 * n).tolist()
        weights = None
        if weighted:
            weights = rng.standard_normal(len(sites))
            weights[rng.random(len(sites)) < 0.3] = 1.0
        fast, want = table.copy(), table.copy()
        kw = dict(superset=superset, sign=sign, weights=weights)
        sweep(fast, sites, **kw)
        oracles.sweep_per_bit(want, sites, **kw)
        assert np.array_equal(fast, want)
        assert np.array_equal(np.signbit(fast), np.signbit(want))


class TestSweepBuffer:
    """``sweep`` runs its passes under its own ufunc buffer size: the
    caller's is back in place afterwards, and no output depends on it."""

    @pytest.mark.parametrize("bufsize", [8192, 1 << 16])
    def test_the_caller_buffer_size_is_restored(self, bufsize):
        with np.errstate():
            np.setbufsize(bufsize)
            sweep(np.ones((2, 1 << 12)), range(12))
            assert np.getbufsize() == bufsize
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                sweep(np.full(1 << 12, 1e308), range(12))
            assert np.getbufsize() == bufsize

    @given(n=st.integers(12, 16), lead=st.sampled_from([(), (2,), (3, 2)]),
           repeated=st.booleans(), superset=st.booleans(),
           sign=st.sampled_from([1.0, -1.0]), weighted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_output_does_not_depend_on_the_buffer_size(
            self, n, lead, repeated, superset, sign, weighted, seed):
        # bits 6-11 are the passes whose speed depends on the buffer size
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((*lead, 1 << n))
        table[rng.random(table.shape) < 0.3] = -0.0
        sites = (rng.integers(6, 12, 8) if repeated
                 else rng.permutation(np.arange(6, 12))).tolist()
        weights = rng.standard_normal(len(sites)) if weighted else None
        kw = dict(superset=superset, sign=sign, weights=weights)
        outs = [sweep(table.copy(), sites, **kw),
                oracles.sweep_per_bit(table.copy(), sites, **kw)]
        with np.errstate():
            np.setbufsize(1 << 16)
            outs += [sweep(table.copy(), sites, **kw),
                     oracles.sweep_per_bit(table.copy(), sites, **kw)]
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
            assert np.array_equal(np.signbit(out), np.signbit(outs[0]))


class TestBlockedSweep:
    """Tables longer than 2**18 entries sweep their low bits chunk by chunk;
    the result must equal one whole-table pass per bit, bit for bit."""

    @staticmethod
    def _per_bit(table, sites, superset, sign, weights):
        # one pass per bit over the whole table, by index arrays: the masks
        # with bit i against the same masks without it
        masks = np.arange(table.shape[-1])
        for j, i in enumerate(sites):
            hi = masks[masks >> i & 1 == 1]
            lo = hi ^ (1 << i)
            src, dst = (hi, lo) if superset else (lo, hi)
            c = sign if weights is None else sign * weights[j]
            table[..., dst] += c * table[..., src]
        return table

    @pytest.mark.parametrize("n", [18, 19, 20])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("order", ["ascending", "interleaved"])
    @pytest.mark.parametrize("superset, sign, weighted", [
        (False, -1.0, True), (True, 1.0, False)])
    def test_matches_whole_table_passes(self, n, lead, order, superset,
                                        sign, weighted):
        rng = np.random.default_rng(n)
        table = rng.standard_normal((*lead, 1 << n))
        table[..., rng.random(1 << n) < 0.2] = -0.0
        # at 20 sites, bits 19 and 18 are swept whole, 3, 15 and 0 by
        # chunk; at 19 sites bit 18 whole, 17 by chunk; 18 sites, no chunks
        sites = (list(range(n)) if order == "ascending"
                 else [n - 1, 3, 15, 0, n - 2])
        weights = rng.uniform(0.5, 2.0, len(sites)) if weighted else None
        fast, want = table.copy(), table.copy()
        sweep(fast, sites, superset=superset, sign=sign, weights=weights)
        self._per_bit(want, sites, superset, sign, weights)
        assert np.array_equal(fast, want)
        assert np.array_equal(np.signbit(fast), np.signbit(want))


class TestRankedCapacity:
    """Above the cap the ranked kernels refuse before allocating anything."""

    @staticmethod
    def _stand_in(ground):
        # no value table at all: the cap is checked before any allocation
        return types.SimpleNamespace(ground=ground, values=None, probs=None)

    def test_conv_disjoint(self):
        big = DiscreteGround((1.0,) * (RANKED_MAX_SITES + 1))
        op = self._stand_in(big)
        with pytest.raises(CapacityError):
            conv_disjoint(op, op)
        assert "subset_size" not in vars(big)

    def test_convolve_measures(self):
        big = DiscreteGround((1.0,) * (RANKED_MAX_SITES + 1))
        op = self._stand_in(big)
        with pytest.raises(CapacityError):
            convolve_measures(op, op)
        assert "subset_size" not in vars(big)
