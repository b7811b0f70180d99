import dataclasses
import math

import numpy as np
import pytest

import oracles
from confpp import samplers
from confpp.core import BoxWindow, PointConfiguration, split_streams
from confpp.errors import CapacityError, StabilityError, ValidationError
from confpp.processes import (MixedPoisson, PapangelouSpec, Poisson,
                              Superposition, exponential_mixing,
                              point_mass_mixing)
from confpp.samplers import (COUNT_MAX_N, IdentityReport, PointBatch, RunPlan,
                             analytic_count_pmf, constant_h,
                             count_distribution_check, estimate_correlation,
                             sample_batch, sample_gibbs_bd, strauss_spec,
                             verify_gnz, verify_mecke)

W = BoxWindow(((0.0, 1.0),))


class TestRunPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RunPlan(W, replicas=0, master_seed=1)
        with pytest.raises(ValidationError):
            RunPlan(W, replicas=1, master_seed=1, burn_in=-1)
        with pytest.raises(ValidationError, match="thinning >= 1"):
            RunPlan(W, replicas=1, master_seed=1, thinning=0)
        with pytest.raises(ValidationError, match="master_seed >= 0"):
            RunPlan(W, replicas=1, master_seed=-1)
        from confpp.core import DiscreteGround
        with pytest.raises(ValidationError):
            RunPlan(DiscreteGround((1.0,)), replicas=1, master_seed=1)

    @pytest.mark.parametrize("field, value", [
        ("replicas", 2.5), ("replicas", math.nan), ("replicas", True),
        ("burn_in", 1.5), ("thinning", 2.5), ("proposal_points", 2.5),
        ("master_seed", 1.5), ("master_seed", "1"), ("master_seed", False)])
    def test_counts_must_be_integers(self, field, value):
        """A plan with a count that is not an integer fails when it is
        built, naming the count, not later inside a run."""
        plan = dict(replicas=2, master_seed=1, burn_in=1, thinning=1,
                    proposal_points=1)
        assert RunPlan(W, **dict(plan, **{field: np.int64(3)}))
        with pytest.raises(ValidationError, match=f"plan {field} must be"):
            RunPlan(W, **dict(plan, **{field: value}))


class TestSamplePoisson:
    def test_mean_count(self):
        rng = split_streams(1, 1)[0]
        counts = sample_batch(Poisson(2.0), W, rng, 20_000).counts
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 2.0) <= 4 * se

    def test_void_probability(self):
        rng = split_streams(2, 1)[0]
        B = BoxWindow(((0.2, 0.7),))
        z = 2.0
        samples = oracles.configurations(
            sample_batch(Poisson(z), W, rng, 20_000), W)
        hits = [all(not B.contains(p) for p in gamma.points)
                for gamma in samples]
        p = np.mean(hits)
        target = math.exp(-z * B.volume)
        se = math.sqrt(target * (1 - target) / len(hits))
        assert abs(p - target) <= 4 * se

    def test_invalid_intensity(self):
        with pytest.raises(ValidationError):
            sample_batch(Poisson(0.0), W, split_streams(1, 1)[0], 1)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_nan_and_inf(self, z):
        with pytest.raises(ValidationError):
            sample_batch(Poisson(z), W, split_streams(1, 1)[0], 1)


class TestGibbsSampler:
    def test_constant_rate_matches_poisson_counts(self):
        spec = PapangelouSpec(lambda gamma, x: 1.5, r_max=1.5)
        plan = RunPlan(W, replicas=6000, master_seed=9, burn_in=2000,
                       thinning=5)
        counts = sample_gibbs_bd(spec, plan).counts
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
        mean = chain.counts.mean()
        assert mean < beta  # repulsion pushes the mean below the free rate

    def test_stability_error(self):
        lying = PapangelouSpec(lambda gamma, x: 2.0, r_max=1.0)
        plan = RunPlan(W, replicas=1, master_seed=1, burn_in=50)
        with pytest.raises(StabilityError):
            sample_gibbs_bd(lying, plan)

    def test_deterministic(self):
        spec = strauss_spec(2.0, 0.5, 0.1)
        plan = RunPlan(W, replicas=50, master_seed=123, burn_in=200,
                       thinning=2)
        first, again = sample_gibbs_bd(spec, plan), sample_gibbs_bd(spec, plan)
        assert np.array_equal(first.offsets, again.offsets)
        assert np.array_equal(first.coords, again.coords)

    @pytest.mark.parametrize("window", [W, BoxWindow(((0.0, 1.0),) * 2)])
    def test_states_are_one_point_batch(self, window):
        """One offset per state and a ``(points, d)`` block of rows, each
        state sorted, inside the window and free of repeats."""
        plan = RunPlan(window, replicas=40, master_seed=3, burn_in=100,
                       thinning=2)
        batch = sample_gibbs_bd(strauss_spec(20.0, 0.3, 0.1), plan)
        assert type(batch) is PointBatch and len(batch) == 40
        assert batch.offsets[0] == 0 and batch.offsets.dtype == np.int64
        assert batch.coords.shape == (batch.offsets[-1], window.dimension)
        assert batch.overlap_events == 0
        assert len(oracles.configurations(batch, window)) == 40
        assert batch.counts.sum() > 40  # the chain holds points


W2 = BoxWindow(((0.0, 1.0), (0.0, 1.0)))

# the chain's models: (window, spec, run plan)
CHAIN_CASES = {
    "strauss-1d": (W, strauss_spec(2.0, 0.5, 0.1),
                   dict(replicas=150, master_seed=5, burn_in=300,
                        thinning=3)),
    "strauss-2d": (W2, strauss_spec(20.0, 0.3, 0.1),
                   dict(replicas=60, master_seed=6, burn_in=300, thinning=2)),
    "hardcore-1d": (W, strauss_spec(3.0, 0.0, 0.05),
                    dict(replicas=100, master_seed=8, burn_in=300,
                         thinning=2)),
    "scalar-only": (W, PapangelouSpec(lambda gamma, x: 1.5, r_max=1.5),
                    dict(replicas=100, master_seed=9, burn_in=300,
                         thinning=2)),
}


class TestBufferedUniforms:
    """The chain reads ``rng``'s doubles in blocks; the reference loop
    calls ``rng.random()`` once per uniform.  The block size changes no
    result."""

    @pytest.mark.parametrize("block", [1, 3, samplers._UNIFORM_BLOCK])
    @pytest.mark.parametrize("name", sorted(CHAIN_CASES))
    def test_states_match_the_one_draw_loop(self, monkeypatch, name, block):
        monkeypatch.setattr(samplers, "_UNIFORM_BLOCK", block)
        window, spec, plan = CHAIN_CASES[name]
        plan = RunPlan(window, **plan)
        states = oracles.point_tuples(sample_gibbs_bd(spec, plan))
        assert states == oracles.birth_death_states(spec, plan)
        assert len(set(states)) > 10  # the chain moved

    def test_death_index_stays_below_the_count(self):
        # the largest double below 1; rounding is monotone, so int(u * n)
        # for any smaller u is at most this one
        u = 1.0 - 2.0 ** -53
        assert u < 1.0 and math.nextafter(u, 2.0) == 1.0
        n = np.arange(1, 2 ** 20 + 1)
        assert np.all(np.floor(u * n) <= n - 1)
        for n in [2 ** k for k in range(21)] + [3, 5, 2 ** 20 - 1]:
            assert int(u * n) == n - 1


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

    def test_needs_two_replicas(self):
        # one replica has no standard error: it used to pass with z = 0
        # although lhs 6.0 and rhs 14.0 differ
        plan = RunPlan(W, replicas=1, master_seed=1)
        with pytest.raises(ValidationError, match="replicas >= 2"):
            verify_mecke(2.0, W, lambda gamma, x: 5.0 + len(gamma.points),
                         plan)


class TestZeroSpread:
    """A gap with zero standard error is exact: only a zero gap passes."""

    def test_constant_nonzero_gap_fails(self):
        rep = samplers._paired_report("mecke", [6.0, 7.0, 8.0],
                                      [14.0, 15.0, 16.0])
        assert rep.z_score == -math.inf and not rep.passed
        rep = samplers._paired_report("gnz", [2.0, 3.0], [1.0, 1.0], 0.0, 2)
        assert rep.z_score == math.inf and not rep.passed

    def test_zero_gap_passes(self):
        rep = samplers._paired_report("mecke", [2.0, 3.0], [2.0, 3.0])
        assert rep.z_score == 0.0 and rep.passed

    def test_nan_gap_fails(self):
        rep = samplers._paired_report("gnz", [1.0, math.nan], [1.0, 1.0],
                                      0.0, 2)
        assert math.isnan(rep.z_score) and not rep.passed


class TestVerifyGnz:
    def test_constant_rate(self):
        spec = PapangelouSpec(lambda gamma, x: 1.0, r_max=1.0)
        plan = RunPlan(W, replicas=2000, master_seed=13, burn_in=1000,
                       thinning=3)
        rep = verify_gnz(spec, lambda gamma, x: 1.0, plan)
        assert rep.passed

    @pytest.mark.parametrize("batched", [False, True])
    def test_rhs_enforces_the_stated_bound(self, monkeypatch, batched):
        """The states come from a Poisson draw in place of the chain, so
        only the right-hand side evaluates the lying spec."""
        states = sample_batch(Poisson(3.0), W, split_streams(4, 1)[0], 40)
        monkeypatch.setattr(samplers, "sample_gibbs_bd",
                            lambda spec, plan: states)
        def batch(points, proposals):
            return np.full(proposals.shape[:-1], 3.0)

        spec = PapangelouSpec(lambda gamma, x: 3.0,
                              batch if batched else None, r_max=2.0)
        h = constant_h() if batched else (lambda gamma, x: 1.0)
        plan = RunPlan(W, replicas=40, master_seed=5, burn_in=0)
        with pytest.raises(StabilityError, match="exceeds the stated bound"):
            verify_gnz(spec, h, plan)
        honest = dataclasses.replace(spec, r_max=3.0)
        assert verify_gnz(honest, h, plan).rhs_mean == 3.0

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
        samples = sample_batch(Poisson(2.0), W, rng, 8000)
        c1 = BoxWindow(((0.0, 0.4),))
        c2 = BoxWindow(((0.5, 0.9),))
        e1, s1 = estimate_correlation(samples, [c1])
        assert abs(e1 - 2.0) <= 4 * s1
        e2, s2 = estimate_correlation(samples, [c1, c2])
        assert abs(e2 - 4.0) <= 4 * s2

    def test_order1_matches_density_estimator(self):
        rng = split_streams(16, 1)[0]
        samples = sample_batch(Poisson(2.0), W, rng, 4000)
        e1, s1 = estimate_correlation(samples, [W])
        dens = float(np.mean(samples.counts / W.volume))
        assert e1 == pytest.approx(dens, abs=1e-12)

    def test_overlapping_cells_rejected(self):
        samples = oracles.point_batch([PointConfiguration(W)])
        with pytest.raises(ValidationError):
            estimate_correlation(samples,
                                 [BoxWindow(((0.0, 0.5),)),
                                  BoxWindow(((0.4, 0.9),))])

    def test_density_estimator(self):
        """Order 1 on the whole window is the mean of ``|gamma| / vol``."""
        w = BoxWindow(((0.0, 2.0),))
        batch = oracles.point_batch([
            PointConfiguration(w),
            PointConfiguration.checked(w, ((0.1,), (0.2,), (1.3,)))])
        assert (batch.counts / w.volume).tolist() == [0.0, 1.5]
        assert estimate_correlation(batch, [w])[0] == 0.75


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

    @pytest.mark.parametrize("mixing, volume, n_max", [
        pytest.param(exponential_mixing(1.3, n_points=64), 2.0, 200,
                     id="exponential"),
        pytest.param(point_mass_mixing(800.0), 1.0, 2000, id="mean-800")])
    def test_analytic_pmf_matches_the_recurrence_oracle(self, mixing, volume,
                                                        n_max):
        # zv ** n / n! overflows from n = 171 on, and e^-zv underflows to 0
        # from zv = 745 on, so the power form read NaN or raised here
        pmf = analytic_count_pmf(mixing, volume, n_max)
        ref = oracles.mixed_poisson_count_pmf(mixing, volume, n_max)
        assert np.all(np.isfinite(pmf))
        assert np.allclose(pmf, ref, rtol=1e-9, atol=1e-300)
        assert abs(pmf.sum() - 1.0) <= 1e-12

    def test_n_max_runs_at_the_cap(self):
        plan = RunPlan(W, replicas=50, master_seed=20)
        rep = count_distribution_check(Poisson(1.0), W, COUNT_MAX_N, plan)
        assert len(rep["per_n"]) == COUNT_MAX_N + 1
        assert rep["per_n"][-1]["analytic"] == 0.0  # e^-1 / 10000! underflows

    @pytest.mark.parametrize("n_max, error", [
        (COUNT_MAX_N + 1, CapacityError), (-1, ValidationError),
        (2.0, ValidationError), (True, ValidationError)], ids=repr)
    def test_n_max_is_checked_before_any_bin(self, monkeypatch, n_max, error):
        """Checked before the samples are drawn, too."""
        plan = RunPlan(W, replicas=400_000, master_seed=20)

        def no_draw(*args, **kwargs):
            raise AssertionError("samples drawn or count bins allocated")

        monkeypatch.setattr(samplers, "sample_batch", no_draw)
        monkeypatch.setattr(samplers.np, "bincount", no_draw)
        with pytest.raises(error, match="n_max"):
            count_distribution_check(Poisson(1.0), W, n_max, plan)
