import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from confpp.core import (Configuration, DiscreteGround, SetFunction,
                         indicator_empty, power_function)
from confpp.errors import (CapacityError, CocycleError, GroundMismatchError,
                           UndefinedConditionalError, ValidationError)
from confpp.processes import (GIBBS_MAX_SITES, DiscreteTable, Gibbs,
                              MixedPoisson, MixingDensity, PapangelouSpec,
                              Poisson, Superposition, additivity_residual,
                              check_cocycle, convolve_measures,
                              correlation_functional, exponential_mixing,
                              gamma_mixing, gibbs_table, lenard_pd_check,
                              mixing_convolution, papangelou_of_table,
                              pairwise_gibbs_spec, point_mass_mixing,
                              poisson_table, projection_density,
                              recover_correlation, to_discrete_table,
                              uniqueness_diagnostic)
from confpp.transforms import conv_disjoint

G4 = DiscreteGround((0.7, 1.2, 0.5, 0.9))


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

    def test_gamma_moments(self):
        p = gamma_mixing(2.0, 1.0, n_points=2048)
        assert p.moment(1) == pytest.approx(2.0, rel=1e-4)

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_families_reject_bad_parameters(self, bad):
        with pytest.raises(ValidationError):
            exponential_mixing(bad)
        with pytest.raises(ValidationError):
            gamma_mixing(bad, 1.0)
        with pytest.raises(ValidationError):
            gamma_mixing(2.0, bad)
        with pytest.raises(ValidationError):
            Poisson(bad)


class TestMixingConvolution:
    def test_point_point(self):
        p = mixing_convolution(point_mass_mixing(0.4), point_mass_mixing(0.8))
        assert p.grid.size == 1
        assert p.grid[0] == pytest.approx(1.2)

    def test_exp_exp_closed_form(self):
        p = mixing_convolution(exponential_mixing(1.0), exponential_mixing(1.0))
        ref = gamma_mixing(2.0, 1.0, n_points=p.grid.size)
        assert p.moment(1) == pytest.approx(ref.moment(1), rel=1e-6)
        assert p.moment(2) == pytest.approx(ref.moment(2), rel=1e-6)

    def test_grid_convolution_closed_form_agreement(self):
        # same-rate exponentials through the generic grid path
        e = exponential_mixing(1.0, n_points=1024)
        e2 = MixingDensity(e.grid, e.masses)  # strip the analytic tag
        conv = mixing_convolution(e2, e2)
        ref = gamma_mixing(2.0, 1.0, n_points=2048)
        assert conv.moment(1) == pytest.approx(ref.moment(1), rel=1e-4)
        assert abs(conv.moment(2) - ref.moment(2)) <= 1e-2

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
        assert T.overlap_mass == 0.0

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

        def never(gamma, x):
            raise AssertionError("evaluator called above the cap")

        def no_table(*args, **kwargs):
            raise AssertionError("table allocated above the cap")

        spec = PapangelouSpec(never)
        monkeypatch.setattr(np, "zeros", no_table)
        with pytest.raises(CapacityError, match="limited to 16 sites"):
            gibbs_table(g, spec)

    def test_path_dependent_rates_rejected(self):
        bad = PapangelouSpec(
            lambda gamma, x: 1.0 + 0.5 * (len(gamma) % 2) * (x == 0))
        with pytest.raises(CocycleError):
            gibbs_table(G4, bad)

    def test_cocycle_check(self):
        spec = pairwise_gibbs_spec(G4, np.zeros((4, 4)), z=2.0)
        samples = [(Configuration(G4, 0b0011), 2, 3)]
        worst, ok = check_cocycle(spec, samples)
        assert ok and worst < 1e-12


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
        assert out.overlap_mass == 0.0

    def test_poisson_pair_overlap_reported(self):
        C = convolve_measures(poisson_table(G4, 0.5), poisson_table(G4, 0.7))
        assert abs(C.probs.sum() - 1.0) < 1e-12
        assert C.overlap_mass > 0.0  # atoms collide with positive probability

    def test_correlation_commutes_on_split_supports(self, rng):
        m1, m2 = _split_support_tables(G4, rng, 0b0011)
        C = convolve_measures(m1, m2)
        assert C.overlap_mass == 0.0
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


class TestAdditivity:
    def test_constant_rates_vanish(self):
        r1 = PapangelouSpec(lambda gamma, x: 0.5)
        r2 = PapangelouSpec(lambda gamma, x: 0.7)
        samples = [(Configuration(G4, 0b1), Configuration(G4, 0b10), 2, 3)]
        assert additivity_residual(r1, r2, samples)["max"] == 0.0

    def test_point_independent_rates_vanish(self):
        r1 = PapangelouSpec(lambda gamma, x: 1.0 + 0.1 * len(gamma))
        r2 = PapangelouSpec(lambda gamma, x: 2.0 / (1.0 + len(gamma)))
        samples = [(Configuration(G4, 0b1), Configuration(G4, 0b10), 2, 3),
                   (Configuration(G4, 0b11), Configuration(G4, 0b100), 3, 0)]
        # the middle bracket vanishes when rates ignore the location
        assert additivity_residual(r1, r2, samples)["max"] < 1e-14

    def test_generic_interaction_nonzero(self):
        # non-uniform couplings so the candidate points x and y interact
        # differently with the occupied sites
        rng = np.random.default_rng(77)
        J = rng.uniform(0.1, 0.9, (4, 4))
        J = 0.5 * (J + J.T)
        np.fill_diagonal(J, 0.0)
        r1 = pairwise_gibbs_spec(G4, J, z=1.0)
        r2 = pairwise_gibbs_spec(G4, 0.5 * J, z=2.0)
        samples = [(Configuration(G4, 0b1), Configuration(G4, 0b10), 2, 3)]
        assert additivity_residual(r1, r2, samples)["max"] > 1e-6
