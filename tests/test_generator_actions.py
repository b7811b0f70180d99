"""The matrix-free generator actions against independent oracles.

The conjugated action ``hat_L_action`` is compared with the closed form
``hat_L_closed`` (which never builds the move families) and with the dense
adjoint ``adjoint_hat_L`` of that matrix; the continuum action
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
from confpp.core import DiscreteGround, SetFunction, power_function
from confpp.errors import CapacityError
from confpp.generators import (BRUTEFORCE_MAX_SITES, KERNEL_MAX_SITES,
                               BirthDeathKernel, LatticeOperator,
                               adjoint_hat_L, check_derivation,
                               contact_kernel, derivation_residual_max,
                               hat_L_action, hat_L_bruteforce, hat_L_closed,
                               hat_L_continuum_action, invariance_residual,
                               kernel_from_entries, normalized_dispersal,
                               random_kernel)

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
        tab = np.zeros((n, g.n_subsets))
        ker = BirthDeathKernel(g, tab, tab, k_trunc)
    else:
        ker = random_kernel(g, k_trunc, rng)
    rate = float(np.sum((ker.death + ker.birth)
                        * oracles.product_weights(g, z)))
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
    adj = adjoint_hat_L(closed, z).matrix
    op = hat_L_action(ker, z)
    _assert_close(op.apply(G).values, closed.matrix, G.values, rate)
    _assert_close(op.adjoint_apply(k, z).values, adj, k.values, rate, w)
    # the dense operator's own vector adjoint
    _assert_close(closed.adjoint_apply(k, z).values, adj, k.values, rate, w)


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

    def test_kernel_builders_stop_above_the_site_cap(self, monkeypatch):
        n = KERNEL_MAX_SITES + 1
        g = DiscreteGround((1.0,) * n)
        a = np.ones((n, n)) - np.eye(n)
        rng = np.random.default_rng(0)

        def no_tables(*args, **kwargs):
            raise AssertionError("kernel tables allocated above the cap")

        monkeypatch.setattr(np, "zeros", no_tables)
        for build in (lambda: kernel_from_entries(g, [], [], 1),
                      lambda: random_kernel(g, 1, rng),
                      lambda: contact_kernel(g, a)):
            with pytest.raises(CapacityError, match="limited to 20 sites"):
                build()


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
