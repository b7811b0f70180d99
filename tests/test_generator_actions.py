"""The matrix-free generator actions against independent oracles.

The conjugated action ``hat_L_action`` is compared with the closed form
``hat_L_closed`` (which never builds the move families) and with the dense
adjoint ``oracles.adjoint_hat_L`` of that matrix, and the closed form with
the covering-pair sums ``oracles.hat_L_covering_pairs`` to ``1e-12`` of
its largest entry; the continuum action
``hat_L_continuum_action`` with ``oracles.continuum_matrix``, a term-by-term
transcription of the continuum formula.  The derivation checks, which read
an operator only through ``apply``, give on the actions what they give on
the dense matrices.  Random kernels for n <= 8 cover
every truncation order, full-range kernels for n <= 6 and the zero kernel.
A result passes when its largest error is at most ``1e-10`` times the
largest entry of ``|matrix| @ |vector|`` plus the generator's size, its
total rate times ``sum |vector|``: an operator that vanishes in exact
arithmetic, such as a death move that re-occupies its own site, still
leaves rounding of that size along the action's path.  Adjoints are
compared after multiplying by the pairing weights.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import pure_death_kernel
from confpp.cli import _fused_residual
from confpp.core import DiscreteGround, SetFunction, power_function
from confpp.errors import CapacityError
from confpp.generators import (BRUTEFORCE_MAX_SITES, BirthDeathKernel,
                               LatticeOperator, check_derivation,
                               contact_kernel, derivation_residual_max,
                               derive_kernels,
                               hat_L_action, hat_L_bruteforce, hat_L_closed,
                               hat_L_continuum_action, invariance_residual,
                               normalized_dispersal, random_kernel)

TOL = 1e-10
CASES = dict(n=st.integers(0, 8), k_trunc=st.sampled_from([0, 1, 2, 3, None]),
             z=st.sampled_from([0.5, 1.0, 2.0]),
             seed=st.integers(0, 2**32 - 1), zero=st.booleans())


def _case(n, k_trunc, z, seed, zero):
    """Ground, kernel, its total rate at ``z`` and two random vectors.

    ``k_trunc=None`` is a full-range kernel.
    """
    if k_trunc is None:
        assume(n <= 6)
        k_trunc = n
    rng = np.random.default_rng(seed)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    if zero:
        tab = np.zeros((n, int(np.sum(g.subset_size <= k_trunc))))
        ker = BirthDeathKernel(g, tab, tab, k_trunc)
    else:
        ker = random_kernel(g, k_trunc, rng)
    death, birth = oracles.dense_tables(ker)
    rate = float(np.sum((death + birth) * oracles.product_weights(g, z)))
    G = SetFunction(g, rng.standard_normal(g.n_subsets))
    k = SetFunction(g, rng.standard_normal(g.n_subsets))
    return g, ker, rate, G, k


def _assert_close(got, matrix, vec, rate, w=1.0):
    """``max |w (got - matrix @ vec)|`` against ``|matrix| @ |vec|`` plus
    ``rate * sum |w vec|``, all weighted by ``w``."""
    err = np.max(np.abs(w * (got - matrix @ vec)), initial=0.0)
    scale = (np.max(w * (np.abs(matrix) @ np.abs(vec)), initial=0.0)
             + rate * np.sum(np.abs(w * vec)))
    assert err <= TOL * scale


@given(**CASES)
@example(n=8, k_trunc=3, z=2.0, seed=1, zero=False)
@example(n=6, k_trunc=None, z=2.0, seed=1, zero=False)
@example(n=5, k_trunc=2, z=1.0, seed=1, zero=True)
@example(n=1, k_trunc=1, z=2.0, seed=10, zero=False)
@settings(max_examples=40, deadline=None)
def test_conjugated_action_matches_closed_form(n, k_trunc, z, seed, zero):
    g, ker, rate, G, k = _case(n, k_trunc, z, seed, zero)
    w = oracles.product_weights(g, z)
    closed = hat_L_closed(ker, z)
    adj = oracles.adjoint_hat_L(closed, z).matrix
    op = hat_L_action(ker, z)
    _assert_close(op.apply(G).values, closed.matrix, G.values, rate)
    _assert_close(op.adjoint_apply(k, z).values, adj, k.values, rate, w)
    # the dense operator's own vector adjoint
    _assert_close(closed.adjoint_apply(k, z).values, adj, k.values, rate, w)


def _assert_matches_covering_pairs(ker, z):
    want = oracles.hat_L_covering_pairs(ker, z)
    err = np.max(np.abs(hat_L_closed(ker, z).matrix - want))
    assert err <= 1e-12 * np.max(np.abs(want))


@given(**CASES)
@example(n=8, k_trunc=3, z=2.0, seed=4, zero=False)
@example(n=6, k_trunc=None, z=0.5, seed=4, zero=False)
@example(n=5, k_trunc=2, z=1.0, seed=4, zero=True)
@example(n=1, k_trunc=1, z=2.0, seed=4, zero=False)
@example(n=0, k_trunc=0, z=1.0, seed=4, zero=False)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_covering_pairs(n, k_trunc, z, seed, zero):
    # the entry-wise closed form against the signed covering-pair sums it
    # was derived from
    _assert_matches_covering_pairs(_case(n, k_trunc, z, seed, zero)[1], z)


@given(**CASES)
@example(n=0, k_trunc=0, z=1.0, seed=5, zero=False)
@example(n=1, k_trunc=1, z=0.5, seed=5, zero=False)
@example(n=1, k_trunc=0, z=2.0, seed=5, zero=False)
@example(n=8, k_trunc=3, z=2.0, seed=5, zero=False)
@example(n=6, k_trunc=None, z=0.5, seed=5, zero=False)
@settings(max_examples=40, deadline=None)
def test_fused_residual_matches_the_two_builders(n, k_trunc, z, seed, zero):
    # generator-suite's residual, the brute-force matrix less the closed
    # form's terms in place, against the difference of the public builders:
    # the two sums differ in order only, so within 4 ulp of the largest entry
    ker = _case(n, k_trunc, z, seed, zero)[1]
    brute = hat_L_bruteforce(ker, z).matrix
    want = np.max(np.abs(hat_L_closed(ker, z).matrix - brute))
    assert abs(_fused_residual(ker, z) - want) \
        <= 4 * np.spacing(np.max(np.abs(brute)))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_closed_form_matches_covering_pairs_contact(n):
    rng = np.random.default_rng(6)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    a = normalized_dispersal(g, rng.uniform(0.2, 1.0, (n, n)))
    _assert_matches_covering_pairs(contact_kernel(g, a), 1.0)


@given(**CASES)
@example(n=8, k_trunc=3, z=2.0, seed=2, zero=False)
@example(n=6, k_trunc=None, z=0.5, seed=2, zero=False)
@example(n=5, k_trunc=2, z=1.0, seed=2, zero=True)
@example(n=1, k_trunc=1, z=0.5, seed=10, zero=False)
@settings(max_examples=40, deadline=None)
def test_continuum_action_matches_formula(n, k_trunc, z, seed, zero):
    g, ker, rate, G, k = _case(n, k_trunc, z, seed, zero)
    want = oracles.continuum_matrix(ker, z)
    w = oracles.product_weights(g, z)
    adj = (want * w[:, None]).T / w[:, None]
    op = hat_L_continuum_action(ker, z)
    _assert_close(op.apply(G).values, want, G.values, rate)
    _assert_close(op.adjoint_apply(k, z).values, adj, k.values, rate, w)
    # the dense continuum form is the same move families written dense
    dense = op.dense()
    assert np.max(np.abs(dense - want)) <= TOL * (np.max(np.abs(want))
                                                  + rate)


@given(**CASES)
@example(n=8, k_trunc=3, z=2.0, seed=3, zero=False)
@example(n=6, k_trunc=None, z=0.5, seed=3, zero=False)
@example(n=0, k_trunc=0, z=1.0, seed=3, zero=False)
@settings(max_examples=40, deadline=None)
def test_derived_kernels_match_superset_contraction(n, k_trunc, z, seed,
                                                    zero):
    # d1 and b1 on the kernel's columns against the superset sums of the
    # densified tables, one superset at a time
    g, ker, _, _, _ = _case(n, k_trunc, z, seed, zero)
    dk = derive_kernels(ker, z)
    om = np.nonzero(g.subset_size <= ker.k_trunc)[0]
    w = oracles.product_weights(g, z)[om]
    for got, tab in zip((dk.d1, dk.b1), oracles.dense_tables(ker)):
        want = oracles.superset_contraction(tab, g, z)[:, om] / w
        assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("n", [5, 8])
def test_derivation_checks_on_actions_match_dense(n):
    rng = np.random.default_rng(5)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    ker = random_kernel(g, 2, rng)
    G = SetFunction(g, rng.standard_normal(g.n_subsets))
    pairs = [(0b101, 0b010), (0b1, 0b10), (0, g.n_subsets - 1)]
    continuum = hat_L_continuum_action(ker)
    for op in (continuum, LatticeOperator(g, continuum.dense())):
        assert derivation_residual_max(op, G) <= 1e-10
        for eta, xi in pairs:
            assert check_derivation(op, G, eta, xi) <= 1e-10
    # the exact conjugate is no derivation; its action and its closed form
    # leave the same residuals
    closed, action = hat_L_closed(ker), hat_L_action(ker)
    worst = derivation_residual_max(closed, G)
    assert worst > 1.0
    assert derivation_residual_max(action, G) == pytest.approx(worst,
                                                               rel=1e-9)
    for eta, xi in pairs:
        assert check_derivation(action, G, eta, xi) == pytest.approx(
            check_derivation(closed, G, eta, xi), rel=1e-9, abs=1e-10)


def test_check_derivation_at_sixteen_sites():
    # one pair needs three applications, no 4^n table
    n = 16
    rng = np.random.default_rng(116)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    a = normalized_dispersal(g, rng.uniform(0.2, 1.0, (n, n)))
    op = hat_L_continuum_action(contact_kernel(g, a))
    G = SetFunction(g, rng.standard_normal(g.n_subsets))
    for eta, xi in ((0b1011, 0b110100), (1, 1 << 15), (0, g.n_subsets - 1)):
        assert check_derivation(op, G, eta, xi) <= 1e-10


class TestCaps:
    @pytest.mark.parametrize("build", [
        hat_L_closed, hat_L_bruteforce,
        pytest.param(lambda ker: hat_L_continuum_action(ker).dense(),
                     id="continuum_dense")])
    def test_dense_form_stops_above_the_cap(self, build, monkeypatch):
        g = DiscreteGround((1.0,) * (BRUTEFORCE_MAX_SITES + 1))
        ker = pure_death_kernel(g)
        zeros = np.zeros

        def vectors_only(shape, *args, **kwargs):
            if np.prod(shape) > g.n_sites * g.n_subsets:
                raise AssertionError("matrix allocated above the cap")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", vectors_only)
        with pytest.raises(CapacityError):
            build(ker)

    def test_exhaustive_derivation_stops_above_the_cap(self, monkeypatch):
        g = DiscreteGround((1.0,) * (BRUTEFORCE_MAX_SITES + 1))
        op = hat_L_continuum_action(pure_death_kernel(g))
        G = SetFunction(g, np.ones(g.n_subsets))

        def no_table(*args, **kwargs):
            raise AssertionError("table allocated above the cap")

        monkeypatch.setattr(np, "zeros", no_table)
        with pytest.raises(CapacityError, match="limited to 12 sites"):
            derivation_residual_max(op, G)


def test_kernels_build_at_the_ground_cap():
    # a kernel holds only its columns |omega| <= k_trunc, so the ground's
    # 24-site cap is the only one on kernels and on the continuum action
    n = 24
    rng = np.random.default_rng(24)
    g = DiscreteGround((1.0,) * n)
    a = np.ones((n, n)) - np.eye(n)
    death = np.zeros((n, n + 1))  # columns: the empty mask, then each site
    death[23, 1] = 0.5  # d(23, {0})
    ker = BirthDeathKernel(g, death, np.zeros_like(death), 1)
    assert ker.omegas[1] == 0b1 and ker.death[23, 1] == 0.5
    assert random_kernel(g, 1, rng).death.shape == (n, n + 1)
    op = hat_L_continuum_action(contact_kernel(g, a))
    assert op.diag.shape == (g.n_subsets,)


@pytest.mark.parametrize("n, cs", [pytest.param(16, (0.5, 1.0, 3.0), id="16"),
                                   pytest.param(20, (1.0,), id="20")])
def test_contact_stationarity_at_large_n(n, cs):
    # a dense matrix would hold 2^(2n) floats: 32 GiB at n = 16
    rng = np.random.default_rng(100 + n)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    a = normalized_dispersal(g, rng.uniform(0.2, 1.0, (n, n)))
    op = hat_L_continuum_action(contact_kernel(g, a))
    for c in cs:
        assert invariance_residual(op, power_function(g, c))[1] <= 1e-12
