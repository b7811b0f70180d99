import numpy as np
import pytest

from conftest import pure_death_kernel
from confpp.core import (Configuration, DiscreteGround, SetFunction,
                         indicator_empty, power_function)
from confpp.errors import CapacityError, GroundMismatchError, ValidationError
from confpp.generators import (BirthDeathKernel, adjoint_hat_L, apply_L,
                               apply_contact, check_adjoint_leibniz,
                               check_derivation, contact_kernel,
                               convolution_closure_check, derivation_residual_max,
                               derive_kernels, hat_L_action, hat_L_bruteforce,
                               hat_L_closed, hat_L_continuum,
                               invariance_residual,
                               kernel_from_entries, kernel_from_json,
                               LatticeOperator, normalized_dispersal, pairing,
                               random_kernel)
from confpp.transforms import conv_disjoint, k_transform

G5 = DiscreteGround((0.7, 1.2, 0.5, 0.9, 1.1))


class TestKernelValidation:
    def test_truncation_enforced(self):
        n = G5.n_sites
        death = np.zeros((n, G5.n_subsets))
        death[0, 0b111] = 1.0  # |omega| = 3 > k_trunc = 2
        with pytest.raises(ValidationError):
            BirthDeathKernel(G5, death, np.zeros_like(death), 2)

    def test_negative_rates_rejected(self):
        n = G5.n_sites
        death = np.zeros((n, G5.n_subsets))
        death[0, 0] = -1.0
        with pytest.raises(ValidationError):
            BirthDeathKernel(G5, death, np.zeros_like(death), 1)

    def test_full_range_flag(self, rng):
        # k_trunc equal to the site count enables full-range kernels
        ker = random_kernel(G5, G5.n_sites, rng)
        assert ker.k_trunc == G5.n_sites
        big = DiscreteGround((1.0,) * 9)
        with pytest.raises(CapacityError):
            random_kernel(big, big.n_sites, rng)

    def test_random_kernel_keeps_the_entry_list_draws(self):
        # the generator-suite task built its kernels from entry lists drawn
        # in this order; random_kernel must give the same arrays
        def from_entries(ground, rng, k_trunc):
            death, birth = [], []
            for x in range(ground.n_sites):
                for omega in range(ground.n_subsets):
                    if int(omega).bit_count() > k_trunc:
                        continue
                    sites = [i for i in range(ground.n_sites) if omega >> i & 1]
                    if rng.random() < 0.5:
                        death.append({"x": x, "omega": sites,
                                      "value": float(rng.uniform(0.1, 1.0))})
                    if not omega >> x & 1 and rng.random() < 0.5:
                        birth.append({"x": x, "omega": sites,
                                      "value": float(rng.uniform(0.1, 1.0))})
            return kernel_from_entries(ground, death, birth, k_trunc)

        for k_trunc in (0, 2, G5.n_sites):
            want = from_entries(G5, np.random.default_rng(7), k_trunc)
            got = random_kernel(G5, k_trunc, np.random.default_rng(7))
            assert np.array_equal(got.death, want.death)
            assert np.array_equal(got.birth, want.birth)

    def test_json_round_trip(self, rng):
        ker = random_kernel(G5, 2, rng)
        back = kernel_from_json(G5, ker.to_json())
        assert np.array_equal(back.death, ker.death)
        assert np.array_equal(back.birth, ker.birth)

    def test_contact_kernel_requires_symmetry(self):
        a = np.ones((G5.n_sites, G5.n_sites))
        a[0, 1] = 2.0
        with pytest.raises(ValidationError):
            contact_kernel(G5, a)


class TestApplyL:
    def test_matches_conjugated_matrix(self, rng):
        # L(KG) evaluated pointwise equals K applied to the brute matrix image
        ker = random_kernel(G5, 2, rng)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        F = k_transform(G)
        image = k_transform(hat_L_bruteforce(ker).apply(G))
        for gamma in range(G5.n_subsets):
            val = apply_L(ker, F, Configuration(G5, gamma))
            assert val == pytest.approx(image(gamma), abs=1e-10)

    def test_constant_function_annihilated(self, rng):
        ker = random_kernel(G5, 2, rng)
        F = SetFunction(G5, np.ones(G5.n_subsets))
        for gamma in (0, 0b101, 0b11111):
            assert apply_L(ker, F, Configuration(G5, gamma)) == 0.0

    def test_empty_configuration_has_no_moves(self, rng):
        ker = random_kernel(G5, 2, rng)
        F = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert apply_L(ker, F, Configuration(G5, 0)) == 0.0

    def test_contact_embedding(self, rng):
        a = normalized_dispersal(G5, rng.uniform(0.3, 1.0,
                                                 (G5.n_sites, G5.n_sites)))
        F = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        ck = contact_kernel(G5, a)
        for gamma in (0b1, 0b1010, 0b11011):
            c = Configuration(G5, gamma)
            assert apply_contact(a, F, c) == pytest.approx(
                apply_L(ck, F, c), abs=1e-12)

    def test_ground_mismatch(self, rng):
        ker = random_kernel(G5, 1, rng)
        other = DiscreteGround((1.0, 1.0))
        with pytest.raises(GroundMismatchError):
            apply_L(ker, SetFunction(other, np.zeros(4)),
                    Configuration(other, 0))


class TestDerivedKernels:
    def test_first_order_consistency(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        assert np.max(np.abs(dk.d1[:, 0] - dk.d_bar)) < 1e-12
        assert np.max(np.abs(dk.b1[:, 0] - dk.b_bar)) < 1e-12

    def test_bar_sums(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        w = G5.lp_weights(1.0)
        assert np.allclose(dk.d_bar, ker.death @ w, atol=1e-12)
        assert np.allclose(dk.D[0b101], dk.d_bar[0] + dk.d_bar[2])

    def test_d1_superset_sum(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        w = G5.lp_weights(1.0)
        x, xi = 1, 0b100
        acc = sum(ker.death[x, om] * w[om & ~xi]
                  for om in range(G5.n_subsets) if om & xi == xi)
        assert dk.d1[x, xi] == pytest.approx(acc, rel=1e-12)


class TestConjugatedOperator:
    def test_closed_equals_bruteforce(self, rng):
        for _ in range(5):
            ker = random_kernel(G5, 2, rng)
            diff = np.max(np.abs(hat_L_closed(ker).matrix
                                 - hat_L_bruteforce(ker).matrix))
            assert diff < 1e-10

    def test_closed_equals_bruteforce_contact(self, rng):
        a = normalized_dispersal(G5, rng.uniform(0.3, 1.0,
                                                 (G5.n_sites, G5.n_sites)))
        ker = contact_kernel(G5, a)
        diff = np.max(np.abs(hat_L_closed(ker).matrix
                             - hat_L_bruteforce(ker).matrix))
        assert diff < 1e-10

    def test_pure_death_collapses_to_counting_diagonal(self):
        ker = pure_death_kernel(G5)
        expected = np.diag(-G5.subset_size.astype(float))
        for build in (hat_L_bruteforce, hat_L_closed, hat_L_continuum):
            assert np.max(np.abs(build(ker).matrix - expected)) < 1e-12

    def test_linearity(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        G1 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        G2 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        lhs = op.apply(G1 + 3.0 * G2).values
        rhs = op.apply(G1).values + 3.0 * op.apply(G2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_shares_the_callers_matrix_read_only(self):
        A = np.zeros((G5.n_subsets, G5.n_subsets))
        op = LatticeOperator(G5, A)
        assert A.flags.writeable
        assert not op.matrix.flags.writeable
        assert np.shares_memory(op.matrix, A)
        A[0, 0] = 1.0  # the caller may keep editing its own array
        assert op.matrix[0, 0] == 1.0

    def test_annihilates_delta_empty_row(self, rng):
        # the empty row of the conjugated operator vanishes: no moves from
        # the void act on quasi-observables
        ker = random_kernel(G5, 2, rng)
        assert np.max(np.abs(hat_L_bruteforce(ker).matrix[0])) < 1e-12


class TestAdjoint:
    def test_pairing_identity(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        for z in (0.5, 1.0, 2.0):
            adj = adjoint_hat_L(op, z)
            G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
            k = SetFunction(G5, rng.standard_normal(G5.n_subsets))
            lhs = pairing(op.apply(G), k, z)
            rhs = pairing(G, adj.apply(k), z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_activity(self, rng, z):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        k = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        for call in (lambda: adjoint_hat_L(op, z),
                     lambda: op.adjoint_apply(k, z),
                     lambda: hat_L_action(ker).adjoint_apply(k, z)):
            with pytest.raises(ValidationError, match="pairing activity"):
                call()

    def test_involution(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        back = adjoint_hat_L(adjoint_hat_L(op))
        assert np.max(np.abs(back.matrix - op.matrix)) < 1e-12


class TestDerivationProperty:
    def test_continuum_operator_is_derivation(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_continuum(ker)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert derivation_residual_max(op, G) < 1e-10

    def test_single_pair_interface(self, rng):
        ker = random_kernel(G5, 1, rng)
        op = hat_L_continuum(ker)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert check_derivation(op, G, 0b001, 0b110) < 1e-10
        with pytest.raises(ValidationError):
            check_derivation(op, G, 0b011, 0b110)

    def test_overlapping_arguments_rejected(self, rng):
        op = hat_L_continuum(random_kernel(G5, 1, rng))
        G = SetFunction(G5, np.ones(G5.n_subsets))
        with pytest.raises(ValidationError):
            check_derivation(op, G, Configuration(G5, 0b1),
                             Configuration(G5, 0b1))


class TestLeibnizAndClosure:
    def test_pure_death_adjoint_leibniz(self, rng):
        op = hat_L_closed(pure_death_kernel(G5))
        k1 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        k2 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert check_adjoint_leibniz(op, k1, k2) < 1e-10

    def test_closure_on_invariants(self):
        op = hat_L_closed(pure_death_kernel(G5))
        de = indicator_empty(G5)
        assert convolution_closure_check(op, de, 2.0 * de)

    def test_closure_rejects_non_invariant(self, rng):
        op = hat_L_closed(pure_death_kernel(G5))
        bad = SetFunction(G5, np.ones(G5.n_subsets))
        with pytest.raises(ValidationError, match="second"):
            convolution_closure_check(op, indicator_empty(G5), bad)

    def test_power_invariance_orders(self):
        op = hat_L_closed(pure_death_kernel(G5))
        de = indicator_empty(G5)
        k = de
        for _ in range(3):
            k = conv_disjoint(k, de)
            assert max(invariance_residual(op, k).values()) == 0.0


class TestContactStationarity:
    def test_order_one_invariance(self, rng):
        a = normalized_dispersal(G5, rng.uniform(0.2, 1.0,
                                                 (G5.n_sites, G5.n_sites)))
        op = hat_L_continuum(contact_kernel(G5, a))
        for c in (0.5, 1.0, 3.0):
            res = invariance_residual(op, power_function(G5, c))
            assert res[1] <= 1e-12

    def test_normalized_dispersal_properties(self, rng):
        a = normalized_dispersal(G5, rng.uniform(0.2, 1.0,
                                                 (G5.n_sites, G5.n_sites)))
        m = np.asarray(G5.weights)
        assert np.max(np.abs(a - a.T)) < 1e-14
        assert np.max(np.abs(np.diag(a))) == 0.0
        assert np.max(np.abs(a @ m - 1.0)) < 1e-12
