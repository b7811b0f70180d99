"""End-to-end acceptance checks: exact identities at full size, statistical
identities at production replica counts, with the stated runtime budgets."""

import math
import time

import numpy as np
import pytest

from conftest import pure_death_kernel
from oracles import covering_conv
from confpp.core import (BoxWindow, DiscreteGround, SetFunction,
                         indicator_empty, power_function, split_streams)
from confpp.generators import (check_adjoint_leibniz, contact_kernel,
                               convolution_closure_check,
                               derivation_residual_max, hat_L_bruteforce,
                               hat_L_closed, hat_L_continuum_action,
                               invariance_residual, normalized_dispersal,
                               random_kernel)
from confpp.processes import (DiscreteTable, MixedPoisson, Poisson,
                              Superposition, correlation_functional,
                              convolve_measures, exponential_mixing,
                              gamma_mixing, projection_density,
                              recover_correlation)
from confpp.samplers import (RunPlan, count_distribution_check,
                             estimate_correlation, sample_batch,
                             strauss_spec, verify_gnz, verify_mecke)
from confpp.transforms import (conv_disjoint, conv_union, k_inverse,
                               k_transform, minlos_pairing)

UNIT_BOX = BoxWindow(((0.0, 1.0),))


def _ground(n, rng):
    return DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))


class TestExactTransformLayer:
    def test_01_round_trip_bulk(self):
        rng = np.random.default_rng(101)
        g = _ground(12, rng)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            G = SetFunction(g, rng.standard_normal(g.n_subsets))
            back = k_inverse(k_transform(G)).values
            worst = max(worst, float(np.max(np.abs(back - G.values))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 5.0

    def test_02_fourier_property_bulk(self):
        rng = np.random.default_rng(102)
        g = _ground(10, rng)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            G1 = SetFunction(g, rng.standard_normal(g.n_subsets))
            G2 = SetFunction(g, rng.standard_normal(g.n_subsets))
            # conv_union is Kinv(KG1 * KG2) itself: the identity is checked
            # on the enumeration oracle, and conv_union against that oracle
            union = covering_conv(G1.values, G2.values)
            lhs = k_transform(SetFunction(g, union)).values
            rhs = k_transform(G1).values * k_transform(G2).values
            worst = max(worst, float(np.max(np.abs(lhs - rhs))),
                        float(np.max(np.abs(conv_union(G1, G2).values
                                            - union))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 30.0

    def test_03_pairing_identity_bulk(self):
        rng = np.random.default_rng(103)
        g = _ground(8, rng)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            H, G1, G2 = (SetFunction(g, rng.standard_normal(g.n_subsets))
                         for _ in range(3))
            lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
            worst = max(worst,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 10.0


class TestMeasureConvolution:
    def test_04_correlation_commutes_with_convolution(self):
        rng = np.random.default_rng(104)
        g = _ground(8, rng)
        worst = 0.0
        for _ in range(50):
            # complementary random site blocks keep the union collision-free
            split = int(rng.integers(1, g.n_subsets - 1))
            tables = []
            for support in (split, (g.n_subsets - 1) & ~split):
                probs = np.zeros(g.n_subsets)
                masks = np.nonzero(np.arange(g.n_subsets) & ~support == 0)[0]
                vals = rng.uniform(0.1, 1.0, masks.size)
                probs[masks] = vals / vals.sum()
                tables.append(DiscreteTable(g, probs))
            conv = convolve_measures(*tables)
            assert conv.overlap_mass <= 1e-12
            lhs = correlation_functional(conv).values
            rhs = conv_disjoint(correlation_functional(tables[0]),
                                correlation_functional(tables[1])).values
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-10

    def test_04_binomial_case_exact(self):
        g = _ground(8, np.random.default_rng(105))
        out = conv_disjoint(power_function(g, 0.6), power_function(g, 1.1))
        assert np.allclose(out.values, power_function(g, 1.7).values,
                           rtol=0.0, atol=1e-10)

    def test_05_projection_round_trip(self):
        rng = np.random.default_rng(106)
        g = _ground(8, rng)
        k = SetFunction(g, rng.standard_normal(g.n_subsets))
        for z in (0.5, 1.0, 2.0):
            back = recover_correlation(projection_density(k, z), z)
            assert np.max(np.abs(back.values - k.values)) <= 1e-10


class TestGeneratorCalculus:
    def test_06_closed_form_equals_conjugation(self):
        rng = np.random.default_rng(107)
        start = time.perf_counter()
        worst = 0.0
        for i in range(50):
            g = _ground(int(rng.integers(4, 9)), rng)
            ker = random_kernel(g, int(rng.integers(0, 3)), rng)
            diff = np.max(np.abs(hat_L_closed(ker).matrix
                                 - hat_L_bruteforce(ker).matrix))
            worst = max(worst, float(diff))
        g = _ground(8, rng)
        a = normalized_dispersal(g, rng.uniform(0.2, 1.0,
                                                (g.n_sites, g.n_sites)))
        ker = contact_kernel(g, a)
        diff = np.max(np.abs(hat_L_closed(ker).matrix
                             - hat_L_bruteforce(ker).matrix))
        worst = max(worst, float(diff))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 60.0

    def test_07_derivation_property_exhaustive(self):
        rng = np.random.default_rng(108)
        g = _ground(8, rng)
        ker = random_kernel(g, 2, rng)
        op = hat_L_continuum_action(ker)
        G = SetFunction(g, rng.standard_normal(g.n_subsets))
        assert derivation_residual_max(op, G) <= 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "the operator obtained by conjugating a birth-death generator "
        "through the lattice transform has matrix entries that move mass "
        "down by two or more sites whenever the kernel carries death or "
        "dispersal mass, while the two-shift dual-sum identity forces every "
        "coefficient to be independent of the resting set; no operator can "
        "satisfy both, so the exact conjugate is not a derivation"))
    def test_07_derivation_fails_for_exact_conjugate(self):
        rng = np.random.default_rng(109)
        g = _ground(8, rng)
        ker = random_kernel(g, 2, rng)
        op = hat_L_closed(ker)
        G = SetFunction(g, rng.standard_normal(g.n_subsets))
        assert derivation_residual_max(op, G) <= 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "a derivation of the disjoint-union convolution algebra (the tensor "
        "product of square-zero site algebras) must have components "
        "supported on sets containing their own site, because the plain "
        "site derivative does not descend to the square-zero quotient; "
        "adjoints of kernels with death or dispersal mass violate that "
        "support condition, so the product rule fails for generic kernels"))
    def test_07_adjoint_leibniz_fails_generically(self):
        rng = np.random.default_rng(110)
        g = _ground(8, rng)
        ker = random_kernel(g, 2, rng)
        op = hat_L_closed(ker)
        k1 = SetFunction(g, rng.standard_normal(g.n_subsets))
        k2 = SetFunction(g, rng.standard_normal(g.n_subsets))
        assert check_adjoint_leibniz(op, k1, k2) <= 1e-10

    def test_07_adjoint_leibniz_pure_death(self):
        rng = np.random.default_rng(111)
        g = _ground(8, rng)
        op = hat_L_closed(pure_death_kernel(g))
        k1 = SetFunction(g, rng.standard_normal(g.n_subsets))
        k2 = SetFunction(g, rng.standard_normal(g.n_subsets))
        assert check_adjoint_leibniz(op, k1, k2) <= 1e-10

    def test_07_closure_and_power_invariance(self):
        g = _ground(8, np.random.default_rng(112))
        op = hat_L_closed(pure_death_kernel(g))
        de = indicator_empty(g)
        assert convolution_closure_check(op, de, 3.0 * de)
        k = de
        for _ in range(3):  # k, k*k, k*k*k, k*k*k*k all stay invariant
            k = conv_disjoint(k, de)
            assert max(invariance_residual(op, k).values()) <= 1e-10

    def test_12_contact_stationarity(self):
        rng = np.random.default_rng(113)
        g = _ground(8, rng)
        a = normalized_dispersal(g, rng.uniform(0.2, 1.0,
                                                (g.n_sites, g.n_sites)))
        op = hat_L_continuum_action(contact_kernel(g, a))
        for c in (0.5, 1.0, 3.0):
            res = invariance_residual(op, power_function(g, c))
            assert res[1] <= 1e-12


class TestStatisticalLayer:
    def test_08_insertion_identity(self):
        B = BoxWindow(((0.25, 0.75),))

        def h_const(gamma, x):
            return 1.0

        def h_cell(gamma, x):
            return 1.0 if B.contains(x) else 0.0

        def h_pair(gamma, x):
            if not B.contains(x):
                return 0.0
            return float(sum(1 for p in gamma.points
                             if p != x and B.contains(p)))

        start = time.perf_counter()
        seed = 200
        for z in (0.5, 2.0):
            for h in (h_const, h_cell, h_pair):
                seed += 1
                plan = RunPlan(UNIT_BOX, replicas=10_000, master_seed=seed)
                rep = verify_mecke(z, UNIT_BOX, h, plan)
                assert rep.passed, (z, h.__name__, rep)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

    def test_09_conditional_intensity_identity(self):
        spec = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(UNIT_BOX, replicas=130_000, master_seed=301,
                       burn_in=10_000, thinning=10)
        start = time.perf_counter()
        rep = verify_gnz(spec, lambda gamma, x: 1.0, plan)
        elapsed = time.perf_counter() - start
        assert rep.n_effective >= 100_000
        assert rep.passed, rep
        assert elapsed < 300.0

    def test_10_superposition(self):
        z1, z2 = 0.7, 1.3
        n_samples = 100_000
        rng = split_streams(302, 1)[0]
        samples = sample_batch(Superposition(Poisson(z1), Poisson(z2)),
                               UNIT_BOX, rng, n_samples)
        assert samples.overlap_events == 0
        c1 = BoxWindow(((0.0, 0.45),))
        c2 = BoxWindow(((0.5, 0.95),))
        e1, s1 = estimate_correlation(samples, [c1], 1)
        assert abs(e1 - (z1 + z2)) <= 4 * s1
        e2, s2 = estimate_correlation(samples, [c1, c2], 2)
        assert abs(e2 - (z1 + z2) ** 2) <= 4 * s2
        plan = RunPlan(UNIT_BOX, replicas=n_samples, master_seed=303)
        rep = count_distribution_check(
            Superposition(Poisson(z1), Poisson(z2)), UNIT_BOX, 10, plan)
        assert rep["tv"] <= 0.01
        assert rep["overlap_events"] == 0

    def test_11_mixed_poisson_convolution(self):
        model = Superposition(MixedPoisson(exponential_mixing(1.0)),
                              MixedPoisson(exponential_mixing(1.0)))
        plan = RunPlan(UNIT_BOX, replicas=100_000, master_seed=304)
        rep = count_distribution_check(model, UNIT_BOX, 10, plan)
        assert rep["tv"] <= 0.02
        # the analytic column is the Gamma(2,1)-mixed law
        from confpp.samplers import analytic_count_pmf
        ref = analytic_count_pmf(gamma_mixing(2.0, 1.0), 1.0, 10)
        for rec in rep["per_n"]:
            assert rec["analytic"] == pytest.approx(ref[rec["n"]], abs=1e-4)

    def test_11_exponential_count_law(self):
        theta = 1.0
        plan = RunPlan(UNIT_BOX, replicas=100_000, master_seed=305)
        rep = count_distribution_check(MixedPoisson(exponential_mixing(theta)),
                                       UNIT_BOX, 8, plan)
        for rec in rep["per_n"]:
            n = rec["n"]
            target = theta / (1.0 + theta) ** (n + 1)
            se = math.sqrt(target * (1 - target) / plan.replicas)
            assert abs(rec["empirical"] - target) <= 4 * se + 1e-4
