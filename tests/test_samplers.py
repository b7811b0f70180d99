import math

import numpy as np
import pytest

from confpp.core import BoxWindow, Configuration, split_streams
from confpp.errors import OverlapError, StabilityError, ValidationError
from confpp.processes import (MixedPoisson, PapangelouSpec, Poisson,
                              Superposition, exponential_mixing,
                              point_mass_mixing)
from confpp.samplers import (IdentityReport, RunPlan, analytic_count_pmf,
                             count_distribution_check,
                             detailed_balance_residual, density_estimator,
                             estimate_correlation, sample_gibbs_bd,
                             sample_mixed_poisson, sample_poisson,
                             strauss_spec, superpose, verify_gnz,
                             verify_mecke)

W = BoxWindow(((0.0, 1.0),))


class TestRunPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RunPlan(W, replicas=0, master_seed=1)
        with pytest.raises(ValidationError):
            RunPlan(W, replicas=1, master_seed=1, burn_in=-1)
        from confpp.core import DiscreteGround
        with pytest.raises(ValidationError):
            RunPlan(DiscreteGround((1.0,)), replicas=1, master_seed=1)

    def test_json(self):
        doc = RunPlan(W, replicas=5, master_seed=3).to_json()
        assert doc["replicas"] == 5 and doc["burn_in"] == 10_000


class TestSamplePoisson:
    def test_mean_count(self):
        rng = split_streams(1, 1)[0]
        counts = [len(sample_poisson(W, 2.0, rng)) for _ in range(20_000)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 2.0) <= 4 * se

    def test_void_probability(self):
        rng = split_streams(2, 1)[0]
        B = BoxWindow(((0.2, 0.7),))
        z = 2.0
        hits = [all(not B.contains(p) for p in
                    sample_poisson(W, z, rng).points)
                for _ in range(20_000)]
        p = np.mean(hits)
        target = math.exp(-z * B.volume)
        se = math.sqrt(target * (1 - target) / len(hits))
        assert abs(p - target) <= 4 * se

    def test_invalid_intensity(self):
        with pytest.raises(ValidationError):
            sample_poisson(W, 0.0, split_streams(1, 1)[0])

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_nan_and_inf(self, z):
        with pytest.raises(ValidationError):
            sample_poisson(W, z, split_streams(1, 1)[0])


class TestSampleMixedPoisson:
    def test_point_mass_is_poisson(self):
        rng = split_streams(3, 1)[0]
        counts = [len(sample_mixed_poisson(W, point_mass_mixing(1.5), rng))
                  for _ in range(20_000)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 1.5) <= 4 * se

    def test_exponential_count_law(self):
        # unit window, Exp(1) mixing: P(N = n) = 2^{-(n+1)}
        rng = split_streams(4, 1)[0]
        mix = exponential_mixing(1.0)
        counts = np.array([len(sample_mixed_poisson(W, mix, rng))
                           for _ in range(20_000)])
        for n in range(5):
            p = float(np.mean(counts == n))
            target = 2.0 ** -(n + 1)
            se = math.sqrt(target * (1 - target) / counts.size)
            assert abs(p - target) <= 4 * se


class TestSuperpose:
    def test_merge(self):
        a = Configuration(W, points=((0.1,), (0.5,), (0.8,)))
        b = Configuration(W, points=((0.2,), (0.3,), (0.6,), (0.9,)))
        assert len(superpose(a, b)) == 7
        assert superpose(Configuration(W), b) == b

    def test_commutative_associative(self):
        a = Configuration(W, points=((0.1,),))
        b = Configuration(W, points=((0.2,),))
        c = Configuration(W, points=((0.3,),))
        assert superpose(a, b) == superpose(b, a)
        assert superpose(superpose(a, b), c) == superpose(a, superpose(b, c))

    def test_coincident_rejected(self):
        a = Configuration(W, points=((0.5,),))
        with pytest.raises(OverlapError):
            superpose(a, a)


class TestGibbsSampler:
    def test_constant_rate_matches_poisson_counts(self):
        spec = PapangelouSpec(lambda gamma, x: 1.5, {"r_max": 1.5})
        plan = RunPlan(W, replicas=6000, master_seed=9, burn_in=2000,
                       thinning=5)
        chain = sample_gibbs_bd(spec, plan)
        counts = np.array([len(g) for g in chain])
        emp = np.array([np.mean(counts == n) for n in range(9)])
        pois = np.array([math.exp(-1.5) * 1.5 ** n / math.factorial(n)
                         for n in range(9)])
        tv = 0.5 * (np.abs(emp - pois).sum()
                    + abs((1 - emp.sum()) - (1 - pois.sum())))
        assert tv <= 0.02

    def test_strauss_inhibition(self):
        beta, g, R = 2.0, 0.5, 0.1
        plan = RunPlan(W, replicas=4000, master_seed=10, burn_in=3000,
                       thinning=5)
        chain = sample_gibbs_bd(strauss_spec(beta, g, R), plan)
        mean = np.mean([len(c) for c in chain])
        assert mean < beta  # repulsion pushes the mean below the free rate

    def test_detailed_balance(self):
        res = detailed_balance_residual(strauss_spec(2.0, 0.5, 0.1),
                                        RunPlan(W, 10, 7, burn_in=200))
        assert res <= 1e-12

    def test_stability_error(self):
        lying = PapangelouSpec(lambda gamma, x: 2.0, {"r_max": 1.0})
        plan = RunPlan(W, replicas=1, master_seed=1, burn_in=50)
        with pytest.raises(StabilityError):
            sample_gibbs_bd(lying, plan)

    def test_deterministic(self):
        spec = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(W, replicas=50, master_seed=123, burn_in=200,
                       thinning=2)
        assert sample_gibbs_bd(spec, plan) == sample_gibbs_bd(spec, plan)


class TestStraussSpec:
    @pytest.mark.parametrize("beta, g, R", [
        (math.nan, 0.5, 0.1), (math.inf, 0.5, 0.1), (0.0, 0.5, 0.1),
        (2.0, math.nan, 0.1), (2.0, -0.1, 0.1), (2.0, 1.5, 0.1),
        (2.0, 0.5, math.nan), (2.0, 0.5, math.inf), (2.0, 0.5, 0.0)])
    def test_rejects_invalid_parameters(self, beta, g, R):
        with pytest.raises(ValidationError):
            strauss_spec(beta, g, R)


class TestVerifyMecke:
    def test_h_constant(self):
        plan = RunPlan(W, replicas=4000, master_seed=11)
        rep = verify_mecke(2.0, W, lambda gamma, x: 1.0, plan)
        assert rep.passed and abs(rep.lhs_mean - 2.0) < 0.2

    def test_determinism(self):
        plan = RunPlan(W, replicas=500, master_seed=11)
        a = verify_mecke(2.0, W, lambda gamma, x: 1.0, plan)
        b = verify_mecke(2.0, W, lambda gamma, x: 1.0, plan)
        assert a == b

    def test_report_shape(self):
        plan = RunPlan(W, replicas=200, master_seed=12)
        rep = verify_mecke(0.5, W, lambda gamma, x: 1.0, plan)
        assert isinstance(rep, IdentityReport)
        assert rep.n_effective == 200
        doc = rep.to_json()
        assert doc["identity"] == "mecke" and "z_score" in doc


class TestVerifyGnz:
    def test_constant_rate(self):
        spec = PapangelouSpec(lambda gamma, x: 1.0, {"r_max": 1.0})
        plan = RunPlan(W, replicas=2000, master_seed=13, burn_in=1000,
                       thinning=3)
        rep = verify_gnz(spec, lambda gamma, x: 1.0, plan)
        assert rep.passed

    def test_strauss_neighbor_functional(self):
        spec = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(W, replicas=3000, master_seed=14, burn_in=2000,
                       thinning=4)
        R2 = 0.1 ** 2

        def h(gamma, x):
            return float(sum(1 for p in gamma.points
                             if p != x and (p[0] - x[0]) ** 2 <= R2))

        rep = verify_gnz(spec, h, plan)
        assert rep.passed
        assert rep.n_effective > 100


class TestEstimators:
    def test_correlation_orders(self):
        rng = split_streams(15, 1)[0]
        samples = [sample_poisson(W, 2.0, rng) for _ in range(8000)]
        c1 = BoxWindow(((0.0, 0.4),))
        c2 = BoxWindow(((0.5, 0.9),))
        e1, s1 = estimate_correlation(samples, [c1], 1)
        assert abs(e1 - 2.0) <= 4 * s1
        e2, s2 = estimate_correlation(samples, [c1, c2], 2)
        assert abs(e2 - 4.0) <= 4 * s2

    def test_order1_matches_density_estimator(self):
        rng = split_streams(16, 1)[0]
        samples = [sample_poisson(W, 2.0, rng) for _ in range(4000)]
        e1, s1 = estimate_correlation(samples, [W], 1)
        dens = float(np.mean([density_estimator(g) for g in samples]))
        assert e1 == pytest.approx(dens, abs=1e-12)

    def test_overlapping_cells_rejected(self):
        samples = [Configuration(W)]
        with pytest.raises(ValidationError):
            estimate_correlation(samples,
                                 [BoxWindow(((0.0, 0.5),)),
                                  BoxWindow(((0.4, 0.9),))], 2)

    def test_density_estimator(self):
        assert density_estimator(Configuration(W)) == 0.0
        g = Configuration(W, points=((0.1,), (0.2,), (0.3,)))
        assert density_estimator(g) == 3.0


class TestCountDistribution:
    def test_poisson(self):
        plan = RunPlan(W, replicas=20_000, master_seed=17)
        rep = count_distribution_check(Poisson(1.0), W, 8, plan)
        assert rep["pass"] and rep["tv"] <= 0.02

    def test_analytic_pmf_point_mass(self):
        pmf = analytic_count_pmf(point_mass_mixing(1.0), 1.0, 5)
        for n in range(6):
            assert pmf[n] == pytest.approx(math.exp(-1) / math.factorial(n))

    def test_superposition_of_point_masses(self):
        plan = RunPlan(W, replicas=20_000, master_seed=18)
        model = Superposition(Poisson(0.6), Poisson(0.9))
        rep = count_distribution_check(model, W, 8, plan)
        assert rep["pass"] and rep["overlap_events"] == 0

    def test_mixed_exponential(self):
        plan = RunPlan(W, replicas=20_000, master_seed=19)
        rep = count_distribution_check(MixedPoisson(exponential_mixing(1.0)),
                                       W, 8, plan)
        assert rep["pass"]
        # closed form of the analytic column: theta/(1+theta)^{n+1}
        for rec in rep["per_n"]:
            assert rec["analytic"] == pytest.approx(
                2.0 ** -(rec["n"] + 1), rel=1e-3)
