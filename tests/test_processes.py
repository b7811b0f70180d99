import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from confpp.core import (Configuration, DiscreteGround, SetFunction,
                         indicator_empty, power_function)
from confpp.errors import (CapacityError, CocycleError, GroundMismatchError,
                           StabilityError, UndefinedConditionalError,
                           ValidationError)
from confpp import processes
from confpp.processes import (GIBBS_MAX_SITES, DiscreteTable, Gibbs,
                              MixedPoisson, MixingDensity, PapangelouSpec,
                              Poisson, Superposition, convolve_measures,
                              correlation_functional, exponential_mixing,
                              gibbs_convolution_check,
                              gibbs_table, lenard_pd_check,
                              mixing_convolution, papangelou_of_table,
                              papangelou_table, pairwise_gibbs_spec,
                              point_mass_mixing, poisson_table,
                              projection_density, recover_correlation,
                              to_discrete_table, uniqueness_diagnostic)
from confpp.transforms import conv_disjoint

G4 = DiscreteGround((0.7, 1.2, 0.5, 0.9))


def _random_pairwise(rng, ground, z, low=-0.5, high=1.0):
    """Pairwise spec with symmetric couplings drawn from ``[low, high)``."""
    n = ground.n_sites
    J = rng.uniform(low, high, (n, n))
    return pairwise_gibbs_spec(ground, J + J.T, z=z)


def _split_support_tables(ground, rng, split_mask):
    """Random tables supported on complementary site blocks."""
    out = []
    for support in (split_mask, (ground.n_subsets - 1) & ~split_mask):
        probs = np.zeros(ground.n_subsets)
        masks = [m for m in range(ground.n_subsets) if m & ~support == 0]
        vals = rng.uniform(0.1, 1.0, len(masks))
        vals /= vals.sum()
        probs[masks] = vals
        out.append(DiscreteTable(ground, probs))
    return out


class TestMixingDensity:
    def test_point_mass(self):
        p = point_mass_mixing(1.5)
        assert p.moment(1) == 1.5
        assert p.moment(2) == pytest.approx(2.25)

    def test_exponential_moments(self):
        p = exponential_mixing(2.0, n_points=2048)
        assert p.moment(1) == pytest.approx(0.5, rel=1e-4)
        assert p.moment(2) == pytest.approx(0.5, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MixingDensity(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            MixingDensity(np.array([0.5, 1.0]), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("grid, masses", [
        ([1.0, math.inf], [0.5, 0.5]),
        ([math.nan], [1.0]),
        ([0.5, math.nan], [0.5, 0.5]),
        ([0.5], [math.nan]),
        ([0.5, 1.0], [math.nan, 1.0]),
    ])
    def test_rejects_nan_and_inf(self, grid, masses):
        with pytest.raises(ValidationError):
            MixingDensity(np.array(grid), np.array(masses))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 0, -3])
    def test_families_reject_bad_parameters(self, bad):
        with pytest.raises(ValidationError):
            exponential_mixing(bad)
        # the grid size must be an integer >= 1, and not a bool
        for n_points in (bad, True):
            with pytest.raises(ValidationError, match="n_points"):
                exponential_mixing(1.0, n_points=n_points)
        with pytest.raises(ValidationError):
            Poisson(bad)


    def test_grid_size_is_capped_before_allocating(self):
        cap = processes.MIXING_MAX_POINTS
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="mixing grids"):
                exponential_mixing(1.0, n_points=cap + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cap  # no grid of cap + 1 floats was made
        # the cap itself builds
        p = exponential_mixing(1.0, n_points=cap)
        assert p.grid.size == cap and p.masses.sum() == pytest.approx(1.0)


class TestMixingConvolution:
    def test_point_point(self):
        p = mixing_convolution(point_mass_mixing(0.4), point_mass_mixing(0.8))
        assert p.grid.size == 1
        assert p.grid[0] == pytest.approx(1.2)

    @pytest.mark.parametrize("z0", [0.3, 1.7])
    def test_point_mass_shifts_the_other_operand(self, z0):
        e = exponential_mixing(1.0)
        for p in (mixing_convolution(point_mass_mixing(z0), e),
                  mixing_convolution(e, point_mass_mixing(z0))):
            assert np.array_equal(p.masses, e.masses)
            assert np.allclose(p.grid, e.grid + z0, rtol=1e-15, atol=0.0)

    def test_grid_convolution_closed_form_agreement(self):
        # two rate-1 exponentials sum to Gamma(2, 1): mean 2, second moment 6
        e = exponential_mixing(1.0, n_points=1024)
        conv = mixing_convolution(e, e)
        assert conv.grid.size == 2 * 1024 - 1
        assert conv.moment(1) == pytest.approx(2.0, rel=1e-4)
        assert abs(conv.moment(2) - 6.0) <= 1e-2

    def test_commutative_associative(self):
        g1 = MixingDensity(np.linspace(0.1, 1.0, 10), np.full(10, 0.1))
        g2 = MixingDensity(np.linspace(0.1, 1.0, 10),
                           np.linspace(1, 10, 10) / 55.0)
        a = mixing_convolution(g1, g2)
        b = mixing_convolution(g2, g1)
        assert np.max(np.abs(a.masses - b.masses)) < 1e-9

    def test_incompatible_grids(self):
        g1 = MixingDensity(np.linspace(0.1, 1.0, 10), np.full(10, 0.1))
        g2 = MixingDensity(np.linspace(0.1, 1.0, 7), np.full(7, 1 / 7))
        with pytest.raises(ValidationError):
            mixing_convolution(g1, g2)


class TestTables:
    def test_poisson_table_normalization(self):
        z = 0.8
        T = poisson_table(G4, z)
        w = G4.lp_weights(z)
        assert np.allclose(T.probs, w / w.sum())
        assert T.overlap_probs.sum() == 0.0

    def test_one_site_examples(self):
        g1 = DiscreteGround((1.0,))
        assert np.allclose(poisson_table(g1, 1.0).probs, [0.5, 0.5])
        assert np.allclose(poisson_table(g1, 2.0).probs, [1 / 3, 2 / 3])

    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteTable(G4, np.full(G4.n_subsets, 1.0))
        probs = np.zeros(G4.n_subsets)
        probs[0] = 1.0
        with pytest.raises(ValidationError):
            DiscreteTable(G4, probs, overlap_probs=probs * 2)
        with pytest.raises(ValidationError, match="non-finite"):
            DiscreteTable(G4, probs, overlap_probs=probs * np.nan)

    def test_gibbs_constant_rate_is_poisson(self):
        spec = PapangelouSpec(lambda gamma, x: 1.3)
        T = gibbs_table(G4, spec)
        assert np.max(np.abs(T.probs - poisson_table(G4, 1.3).probs)) < 1e-12

    def test_gibbs_pairwise_round_trip(self):
        J = np.array([[0, 0.3, 0.1, 0.0], [0.3, 0, 0.2, 0.4],
                      [0.1, 0.2, 0, 0.0], [0.0, 0.4, 0.0, 0]])
        spec = pairwise_gibbs_spec(G4, J, z=0.9)
        T = to_discrete_table(Gibbs(spec), G4)
        for mask in range(G4.n_subsets):
            for x in range(G4.n_sites):
                if mask >> x & 1:
                    continue
                got = papangelou_of_table(T, Configuration(G4, mask), x)
                want = spec(Configuration(G4, mask), x)
                assert got == pytest.approx(want, abs=1e-10)

    def test_gibbs_table_stops_above_the_site_cap(self, monkeypatch):
        g = DiscreteGround((1.0,) * (GIBBS_MAX_SITES + 1))

        def never(*args):
            raise AssertionError("evaluator called above the cap")

        def no_table(*args, **kwargs):
            raise AssertionError("table allocated above the cap")

        spec = PapangelouSpec(never, batch=never)
        monkeypatch.setattr(np, "zeros", no_table)
        monkeypatch.setattr(np, "arange", no_table)
        for build in (papangelou_table, gibbs_table):
            with pytest.raises(CapacityError,
                               match=f"limited to {GIBBS_MAX_SITES} sites"):
                build(g, spec)
        with pytest.raises(CapacityError):
            gibbs_convolution_check(g, spec, spec)

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_gibbs_table_matches_the_scalar_loop(self, n):
        """Bit for bit: the batched and the scalar-only forms alike."""
        rng = np.random.default_rng(n)
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
        pair = _random_pairwise(rng, g, 0.8)
        specs = (pair, PapangelouSpec(pair.evaluator),
                 PapangelouSpec(lambda gamma, x: 1.3),
                 PapangelouSpec(lambda gamma, x: 1.3,
                                batch=lambda points, proposals:
                                np.full(proposals.shape, 1.3)))
        for spec in specs:
            assert np.array_equal(gibbs_table(g, spec).probs,
                                  oracles.gibbs_table(g, spec))

    @pytest.mark.parametrize("n", [1, 7, 12])
    def test_papangelou_table_matches_the_per_mask_loop(self, n):
        """Bit for bit: one stacked call per subset size against one call
        per mask, for the batched and the scalar-only forms."""
        rng = np.random.default_rng(100 + n)
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
        pair = _random_pairwise(rng, g, 0.8)
        for spec in (pair, PapangelouSpec(pair.evaluator)):
            assert np.array_equal(papangelou_table(g, spec),
                                  oracles.papangelou_table(g, spec))

    def test_papangelou_table_rejects_an_unstacked_batch(self):
        spec = PapangelouSpec(lambda gamma, x: 1.3,
                              batch=lambda points, proposals:
                              np.full(len(proposals), 1.3))
        with pytest.raises(ValidationError, match="shape"):
            papangelou_table(G4, spec)

    @pytest.mark.parametrize("batched", [False, True])
    def test_papangelou_table_enforces_the_stated_bound(self, batched):
        """Only the two-site masks exceed ``r_max``; the bound's relative
        slack of 1e-12 lets a value just above it through."""
        def evaluator(gamma, x):
            return 3.0 if len(gamma) == 2 else 2.0 * (1 + 1e-13)

        def batch(points, proposals):
            value = 3.0 if points.shape[-1] == 2 else 2.0 * (1 + 1e-13)
            return np.full(proposals.shape, value)

        spec = PapangelouSpec(evaluator, batch if batched else None, 2.0)
        with pytest.raises(StabilityError, match="exceeds the stated bound"):
            papangelou_table(G4, spec)
        lax = PapangelouSpec(evaluator, batch if batched else None, 3.0)
        assert papangelou_table(G4, lax).max() == 3.0

    @pytest.mark.parametrize("r_max", [-1.0, math.nan, math.inf])
    def test_spec_rejects_a_bad_bound(self, r_max):
        with pytest.raises(ValidationError, match="r_max"):
            PapangelouSpec(lambda gamma, x: 1.0, r_max=r_max)

    def test_flatten_a_superposition(self):
        """The law of the union of two independent lattice draws, against
        the double loop over every pair of masks."""
        left, right = poisson_table(G4, 0.5), poisson_table(G4, 1.3)
        want, overlap = np.zeros(G4.n_subsets), np.zeros(G4.n_subsets)
        for a in range(G4.n_subsets):
            for b in range(G4.n_subsets):
                want[a | b] += left.probs[a] * right.probs[b]
                if a & b:
                    overlap[a | b] += left.probs[a] * right.probs[b]
        T = to_discrete_table(Superposition(Poisson(0.5), Poisson(1.3)), G4)
        assert np.allclose(T.probs, want, rtol=0, atol=1e-15)
        assert np.allclose(T.overlap_probs, overlap, rtol=0, atol=1e-15)

    def test_flatten_a_table_is_the_table(self):
        T = poisson_table(G4, 0.8)
        assert to_discrete_table(T) is T
        assert to_discrete_table(T, G4) is T

    def test_papangelou_table_layout(self):
        spec = _random_pairwise(np.random.default_rng(3), G4, 0.9)
        R = papangelou_table(G4, spec)
        assert R.shape == (4, 16)
        for mask in range(16):
            for x in range(4):
                want = (0.0 if mask >> x & 1
                        else spec(Configuration(G4, mask), x))
                assert R[x, mask] == want

    def test_hard_core(self):
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = math.inf
        T = gibbs_table(G4, pairwise_gibbs_spec(G4, J, z=1.5))
        both = [m for m in range(16) if m & 0b11 == 0b11]
        assert np.all(T.probs[both] == 0.0)
        assert np.all(np.delete(T.probs, both) > 0.0)

    def test_path_dependent_rates_rejected(self):
        bad = PapangelouSpec(
            lambda gamma, x: 1.0 + 0.5 * (len(gamma) % 2) * (x == 0))
        with pytest.raises(CocycleError):
            gibbs_table(G4, bad)
        with pytest.raises(CocycleError):
            oracles.gibbs_table(G4, bad)

    def test_cocycle_check(self):
        """Every square is checked, and the first failing one is named."""
        def rates(gap):
            # the entry R[3, {2}] lies in the squares ({2}, x, 3) for x = 0
            # and 1; the check meets y = 3, x = 0 first
            return PapangelouSpec(lambda gamma, x: 1.0 + gap * (
                (gamma.mask, x) == (0b100, 3)))

        with pytest.raises(CocycleError,
                           match="at mask 0b100 for sites 0 and 3"):
            gibbs_table(G4, rates(1e-7))
        gibbs_table(G4, rates(1e-11))  # within the 1e-9 tolerance
        spec = pairwise_gibbs_spec(G4, np.zeros((4, 4)), z=2.0)
        assert np.max(np.abs(gibbs_table(G4, spec).probs
                             - poisson_table(G4, 2.0).probs)) < 1e-15

    @pytest.mark.parametrize("z", [math.nan, -1.0, 0.0, math.inf])
    def test_pairwise_rejects_bad_activity(self, z):
        with pytest.raises(ValidationError, match="activity"):
            pairwise_gibbs_spec(G4, np.zeros((4, 4)), z=z)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_pairwise_rejects_bad_couplings(self, bad):
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = bad
        with pytest.raises(ValidationError, match="couplings"):
            pairwise_gibbs_spec(G4, J)

    def test_pairwise_overflow_is_a_validation_error(self):
        # J = -400 on every pair: one neighbour gives exp(400), two give
        # exp(800), past the largest float
        g = DiscreteGround((1.0, 1.0, 1.0))
        spec = pairwise_gibbs_spec(g, np.full((3, 3), -400.0))
        assert spec(Configuration(g, 0b01), 2) == math.exp(400.0)
        for call in (lambda: spec(Configuration(g, 0b11), 2),
                     lambda: spec.batched(np.array([0, 1]), np.array([2])),
                     lambda: gibbs_table(g, spec)):
            with pytest.raises(ValidationError, match="must be finite"):
                call()


class TestCorrelation:
    def test_poisson_analytic(self):
        k = correlation_functional(Poisson(0.8), G4)
        assert np.array_equal(k.values, power_function(G4, 0.8).values)

    def test_poisson_continuum_and_lattice_readings(self):
        # the model gives the continuum power function; its flattened
        # lattice law conditions on at most one point per site
        z, m = 0.9, G4.weights
        cont = correlation_functional(Poisson(z), G4)
        lat = correlation_functional(to_discrete_table(Poisson(z), G4))
        assert np.array_equal(cont.values, z ** G4.subset_size)
        want = [math.prod(z / (1 + z * m[i]) for i in range(4) if eta >> i & 1)
                for eta in range(G4.n_subsets)]
        assert np.max(np.abs(lat.values - want)) < 1e-15
        assert np.max(np.abs(cont.values - lat.values)) == pytest.approx(
            0.6102050404, abs=1e-10)
        # z m_1 = 1.08 > 1, so the power function is no lattice law
        ok, worst, witness = lenard_pd_check(cont)
        assert not ok and witness.mask == 0b1001
        assert worst == pytest.approx(
            z * m[0] * z * m[3] * (1 - z * m[1]) * (1 - z * m[2]), rel=1e-12)
        ok, worst, witness = lenard_pd_check(lat)
        table = poisson_table(G4, z)
        assert ok and worst == pytest.approx(table.probs.min(), abs=1e-15)
        assert witness.mask == int(np.argmin(table.probs))

    def test_empty_set_is_one(self):
        for model in (Poisson(0.8),
                      MixedPoisson(point_mass_mixing(1.2))):
            assert correlation_functional(model, G4)(0) == 1.0
        assert correlation_functional(poisson_table(G4, 0.8))(0) == 1.0

    def test_table_correlation_superset_sum(self):
        T = poisson_table(G4, 0.8)
        k = correlation_functional(T)
        eta = 0b0101
        acc = sum(T.probs[g] for g in range(G4.n_subsets) if g & eta == eta)
        assert k(eta) == pytest.approx(acc / G4.subset_mass[eta], rel=1e-12)

    def test_mixed_exponential_moments(self):
        gu = DiscreteGround((1.0,) * 4)
        theta = 1.7
        k = correlation_functional(
            MixedPoisson(exponential_mixing(theta, 2048)), gu)
        for n in (1, 2, 3):
            val = k.values[gu.subset_size == n][0]
            assert val == pytest.approx(math.factorial(n) / theta ** n,
                                        rel=1e-4)

    def test_gibbs_requires_table(self):
        spec = PapangelouSpec(lambda gamma, x: 1.0)
        with pytest.raises(ValidationError):
            correlation_functional(Gibbs(spec), G4)

    def test_superposition_analytic(self):
        k = correlation_functional(Superposition(Poisson(0.5), Poisson(0.7)),
                                   G4)
        assert np.max(np.abs(k.values
                             - power_function(G4, 1.2).values)) < 1e-12


class TestConvolveMeasures:
    def test_unit_element(self, rng):
        T = poisson_table(G4, 0.8)
        unit = np.zeros(G4.n_subsets)
        unit[0] = 1.0
        out = convolve_measures(T, DiscreteTable(G4, unit))
        assert np.max(np.abs(out.probs - T.probs)) < 1e-14
        assert out.overlap_probs.sum() == 0.0

    def test_poisson_pair_overlap_reported(self):
        C = convolve_measures(poisson_table(G4, 0.5), poisson_table(G4, 0.7))
        assert abs(C.probs.sum() - 1.0) < 1e-12
        # atoms collide with positive probability
        assert C.overlap_probs.sum() > 0.0

    def test_correlation_commutes_on_split_supports(self, rng):
        m1, m2 = _split_support_tables(G4, rng, 0b0011)
        C = convolve_measures(m1, m2)
        assert C.overlap_probs.sum() == 0.0
        lhs = correlation_functional(C).values
        rhs = conv_disjoint(correlation_functional(m1),
                            correlation_functional(m2)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_papangelou_additive_on_disjoint_part(self):
        C = convolve_measures(poisson_table(G4, 0.5), poisson_table(G4, 0.7))
        dp = C.disjoint_part()
        T = DiscreteTable(G4, dp / dp.sum())
        for mask in range(G4.n_subsets):
            for x in range(G4.n_sites):
                if mask >> x & 1:
                    continue
                r = papangelou_of_table(T, Configuration(G4, mask), x)
                assert r == pytest.approx(1.2, abs=1e-12)

    def test_ground_mismatch(self):
        other = DiscreteGround((1.0, 1.0))
        with pytest.raises(GroundMismatchError):
            convolve_measures(poisson_table(G4, 1.0),
                              poisson_table(other, 1.0))


class TestProjection:
    def test_round_trip_random(self, rng):
        k = SetFunction(G4, rng.standard_normal(G4.n_subsets))
        for z in (0.5, 1.0, 2.0):
            back = recover_correlation(projection_density(k, z), z)
            assert np.max(np.abs(back.values - k.values)) < 1e-10

    def test_density_reproduces_table_law(self):
        T = poisson_table(G4, 0.8)
        k = correlation_functional(T)
        D = projection_density(k, 1.0)
        w = G4.lp_weights(1.0)
        norm = float(np.prod(1.0 + np.asarray(G4.weights)))
        assert np.max(np.abs(D.values * w / norm - T.probs)) < 1e-12

    def test_full_set_single_term(self, rng):
        density = SetFunction(G4, rng.uniform(0.1, 1.0, G4.n_subsets))
        z = 1.5
        full = G4.n_subsets - 1
        k = recover_correlation(density, z)
        norm = float(np.prod(1.0 + z * np.asarray(G4.weights)))
        # only the empty remainder contributes at the full set
        assert k(full) == pytest.approx(density(full) / norm, rel=1e-12)

    def test_invalid_z(self):
        k = power_function(G4, 1.0)
        for z in (math.nan, math.inf, 0.0, -1.0):
            for op in (projection_density, recover_correlation):
                with pytest.raises(ValidationError,
                                   match="reference intensity"):
                    op(k, z)


class TestLenard:
    def test_table_correlations_pass(self):
        for model in (poisson_table(G4, 0.8),
                      to_discrete_table(
                          MixedPoisson(MixingDensity(
                              np.array([0.5, 1.5]),
                              np.array([0.4, 0.6]))), G4)):
            k = correlation_functional(model)
            ok, worst, witness = lenard_pd_check(k)
            # the certificate is the law that k was computed from
            assert ok
            assert worst == pytest.approx(model.probs.min(), abs=1e-12)
            assert witness.mask == int(np.argmin(model.probs))

    def test_alternating_sign_fails(self):
        k = SetFunction(G4, np.where(G4.subset_size & 1, -1.0, 1.0))
        ok, worst, _ = lenard_pd_check(k)
        assert not ok and worst < -1e-10

    def test_indicator_empty_passes(self):
        ok, worst, witness = lenard_pd_check(indicator_empty(G4))
        # its law is the point mass at the void: the least zero is mask 1
        assert ok and worst == 0.0 and witness.mask == 1

    def test_tampered_table_is_caught(self):
        """One probability pushed to -0.09, its mass moved to the void.

        ``k`` is the superset sum of the tampered law over ``wt_1``: moving
        ``delta`` from mask 3 to the void lowers it by ``delta / wt_1`` on
        the masks 1, 2 and 3.  Random nonnegative probes miss this.
        """
        g14 = DiscreteGround(tuple(np.linspace(0.6, 1.4, 14)))
        table = poisson_table(g14, 0.8)
        probs = table.probs
        delta = probs[3] + 0.09
        vals = correlation_functional(table).values.copy()
        w = g14.lp_weights(1.0)
        vals[1:4] -= delta / w[1:4]
        ok, worst, witness = lenard_pd_check(SetFunction(g14, vals))
        assert not ok
        assert worst == pytest.approx(probs[3] - delta, abs=1e-12)
        assert witness.mask == 3


@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       from_table=st.booleans())
@example(n=0, seed=1, from_table=False)
@example(n=6, seed=1, from_table=True)
@settings(max_examples=25, deadline=None)
def test_lenard_matches_probe_oracle(n, seed, from_table):
    rng = np.random.default_rng(seed)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    if from_table:
        k = correlation_functional(
            DiscreteTable(g, rng.dirichlet(np.ones(g.n_subsets))))
    else:
        k = SetFunction(g, rng.standard_normal(g.n_subsets))
    mu = oracles.lenard_pairings(k.values, g)
    slack = 1e-10 * float(np.dot(np.abs(k.values),
                                 oracles.product_weights(g, 1.0)))
    ok, worst, witness = lenard_pd_check(k)
    assert abs(worst - mu.min()) <= slack
    assert mu[witness.mask] <= mu.min() + slack
    assert ok == bool(mu.min() >= -1e-10)


class TestUniqueness:
    def test_poisson_unique(self):
        rep = uniqueness_diagnostic(power_function(G4, 1.2), 4)
        assert rep.verdict == "unique_by_K_C2"
        assert rep.delta == 0.0
        # s_n is the weighted elementary symmetric polynomial times z^n
        import itertools
        m = G4.weights
        for n, s in enumerate(rep.s_values, start=1):
            e_n = sum(np.prod(c) for c in itertools.combinations(m, n))
            assert s == pytest.approx(1.2 ** n * e_n, rel=1e-12)

    def test_empty_indicator_unique(self):
        rep = uniqueness_diagnostic(indicator_empty(G4), 4)
        assert rep.verdict == "unique_by_K_C2"
        assert all(s == 0.0 for s in rep.s_values)

    def test_cubic_factorial_growth_inconclusive(self):
        vals = np.array([math.factorial(int(s)) ** 3
                         for s in G4.subset_size], dtype=float)
        rep = uniqueness_diagnostic(SetFunction(G4, vals), 4)
        assert rep.verdict == "inconclusive"

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            uniqueness_diagnostic(power_function(G4, 1.0), 9)


class TestPapangelou:
    def test_poisson_constant(self):
        T = poisson_table(G4, 0.8)
        for mask in range(G4.n_subsets):
            for x in range(G4.n_sites):
                if mask >> x & 1:
                    continue
                r = papangelou_of_table(T, Configuration(G4, mask), x)
                assert r == pytest.approx(0.8, abs=1e-12)

    def test_undefined_conditional(self):
        probs = np.zeros(G4.n_subsets)
        probs[0] = probs[1] = 0.5
        T = DiscreteTable(G4, probs)
        with pytest.raises(UndefinedConditionalError):
            papangelou_of_table(T, Configuration(G4, 0b10), 0)

    def test_occupied_site_rejected(self):
        T = poisson_table(G4, 1.0)
        with pytest.raises(ValidationError):
            papangelou_of_table(T, Configuration(G4, 0b1), 0)

    @pytest.mark.parametrize("x", [7, 4, -1, 2.5, "1", None])
    def test_site_must_be_an_integer_in_range(self, x):
        T = poisson_table(G4, 1.0)
        with pytest.raises(ValidationError, match="not an integer in range"):
            papangelou_of_table(T, Configuration(G4, 0), x)

    def test_numpy_integer_site(self):
        T = poisson_table(G4, 0.8)
        assert papangelou_of_table(T, Configuration(G4, 0b1),
                                   np.int64(2)) == pytest.approx(0.8)

    def test_foreign_ground_rejected(self):
        T = poisson_table(G4, 1.0)
        g3 = DiscreteGround((0.7, 1.2, 0.5))
        with pytest.raises(GroundMismatchError):
            papangelou_of_table(T, Configuration(g3, 0b1), 1)


class TestAdditivity:
    """The exact Gibbs convolution certificate.

    The disjoint part of ``mu1 * mu2`` has the posterior mean of ``r1 + r2``
    over the splits of gamma as its conditional intensity.
    """

    def test_constant_rates_vanish(self):
        r1 = PapangelouSpec(lambda gamma, x: 0.5)
        r2 = PapangelouSpec(lambda gamma, x: 0.7)
        residual, _, _ = gibbs_convolution_check(G4, r1, r2)
        assert residual < 1e-14

    def test_point_independent_rates_vanish(self):
        r1 = PapangelouSpec(lambda gamma, x: 1.0 + 0.1 * len(gamma))
        r2 = PapangelouSpec(lambda gamma, x: 2.0 / (1.0 + len(gamma)))
        residual, _, _ = gibbs_convolution_check(G4, r1, r2)
        assert residual < 1e-14

    def test_pairwise_at_ten_sites(self):
        rng = np.random.default_rng(10)
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, 10)))
        specs = [_random_pairwise(rng, g, z) for z in (0.4, 1.3)]
        residual, _, _ = gibbs_convolution_check(g, *specs)
        assert residual <= 1e-10
        mus = [gibbs_table(g, s) for s in specs]
        R = [papangelou_table(g, s) for s in specs]
        _, rhs = processes._convolution_sides(*mus, *R)
        want = oracles.gibbs_convolution_rhs(mus[0].probs, mus[1].probs, *R)
        assert np.max(np.abs(rhs - want)) <= 1e-12 * want.max()

    def test_tampered_rate_is_witnessed(self, monkeypatch):
        """One entry of R2 scaled by 1.01 after mu2 is built.

        The gap appears at every superset of the tampered mask, scaled by
        mu1 of the added sites; repulsive couplings with ``z m < 1`` make
        the void the heaviest mask of mu1, so the tampered mask is the
        witness.
        """
        rng = np.random.default_rng(11)
        g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, 10)))
        s1, s2 = (_random_pairwise(rng, g, 0.6, low=0.0) for _ in range(2))
        assert int(np.argmax(gibbs_table(g, s1).probs)) == 0
        g0, x0 = 0b1000100, 3
        real = processes._convolution_sides

        def tampered(mu1, mu2, R1, R2):
            R2 = R2.copy()
            R2[x0, g0] *= 1.01
            return real(mu1, mu2, R1, R2)

        assert gibbs_convolution_check(g, s1, s2)[0] <= 1e-10
        monkeypatch.setattr(processes, "_convolution_sides", tampered)
        residual, gamma, x = gibbs_convolution_check(g, s1, s2)
        assert residual > 1e-6
        assert (gamma.mask, x) == (g0, x0)


@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       batched=st.booleans())
@example(n=8, seed=5, batched=True)
@example(n=8, seed=5, batched=False)
@settings(max_examples=25, deadline=None)
def test_gibbs_layer_matches_oracles(n, seed, batched):
    """Random symmetric couplings against both oracles: the table bit for
    bit, and the certificate's right-hand side split by split."""
    rng = np.random.default_rng(seed)
    g = DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))
    specs = []
    for _ in range(2):
        spec = _random_pairwise(rng, g, rng.uniform(0.2, 2.0), -1.0, 1.0)
        specs.append(spec if batched else PapangelouSpec(spec.evaluator))
    mus = [gibbs_table(g, s) for s in specs]
    for spec, mu in zip(specs, mus):
        assert np.array_equal(mu.probs, oracles.gibbs_table(g, spec))
    R = [papangelou_table(g, s) for s in specs]
    lhs, rhs = processes._convolution_sides(*mus, *R)
    want = oracles.gibbs_convolution_rhs(mus[0].probs, mus[1].probs, *R)
    assert np.max(np.abs(rhs - want)) <= 1e-12 * want.max()
    assert np.max(np.abs(lhs - want)) <= 1e-10 * lhs.max()
    assert gibbs_convolution_check(g, *specs)[0] <= 1e-10
