import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import pure_death_kernel
from oracles import adjoint_hat_L, generator_value
from confpp.cli import run_experiment, validate_config
from confpp.core import (Configuration, DiscreteGround, SetFunction,
                         indicator_empty, power_function)
from confpp.errors import CapacityError, ValidationError
from confpp.generators import (BirthDeathKernel, check_adjoint_leibniz,
                               check_derivation, contact_kernel,
                               convolution_closure_check,
                               derivation_residual_max, derive_kernels,
                               hat_L_action, hat_L_bruteforce, hat_L_closed,
                               hat_L_continuum_action, invariance_residual,
                               LatticeOperator, normalized_dispersal, pairing,
                               random_kernel, _transpose_in_place)
from confpp import generators
from confpp.transforms import conv_disjoint, k_transform

G5 = DiscreteGround((0.7, 1.2, 0.5, 0.9, 1.1))


class TestKernelValidation:
    def test_truncation_enforced(self):
        # a table holds only the columns |omega| <= k_trunc
        n = G5.n_sites
        death = np.zeros((n, G5.n_subsets))
        with pytest.raises(ValidationError, match="shape"):
            BirthDeathKernel(G5, death, np.zeros_like(death), 2)

    def test_negative_rates_rejected(self):
        n = G5.n_sites
        death = np.zeros((n, 1 + n))  # the columns of k_trunc = 1
        death[0, 0] = -1.0
        with pytest.raises(ValidationError, match="negative"):
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
            n = ground.n_sites
            omegas = [m for m in range(ground.n_subsets)
                      if m.bit_count() <= k_trunc]
            death, birth = np.zeros((2, n, len(omegas)))
            for x in range(n):
                for j, omega in enumerate(omegas):
                    if rng.random() < 0.5:
                        death[x, j] = rng.uniform(0.1, 1.0)
                    if not omega >> x & 1 and rng.random() < 0.5:
                        birth[x, j] = rng.uniform(0.1, 1.0)
            return BirthDeathKernel(ground, death, birth, k_trunc)

        for k_trunc in (0, 2, G5.n_sites):
            want = from_entries(G5, np.random.default_rng(7), k_trunc)
            got = random_kernel(G5, k_trunc, np.random.default_rng(7))
            assert np.array_equal(got.death, want.death)
            assert np.array_equal(got.birth, want.birth)

    def test_contact_kernel_requires_symmetry(self):
        a = np.ones((G5.n_sites, G5.n_sites))
        a[0, 1] = 2.0
        with pytest.raises(ValidationError):
            contact_kernel(G5, a)


class TestApplyL:
    """``L`` pointwise (the oracle) and as ``K hat_L_action K^-1``."""

    def test_matches_conjugated_matrix(self, rng):
        # L(KG) evaluated pointwise equals K applied to the brute matrix image
        ker = random_kernel(G5, 2, rng)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        F = k_transform(G)
        image = k_transform(hat_L_bruteforce(ker).apply(G))
        for gamma in range(G5.n_subsets):
            val = generator_value(ker, F, gamma)
            assert val == pytest.approx(image(gamma), abs=1e-10)

    def test_constant_function_annihilated(self, rng):
        # F = 1 is K of the indicator of the empty set; the action's rows
        # cancel up to rounding in the sweeps
        ker = random_kernel(G5, 2, rng)
        image = hat_L_action(ker).apply(indicator_empty(G5))
        assert np.max(np.abs(image.values)) < 1e-12
        F = SetFunction(G5, np.ones(G5.n_subsets))
        for gamma in (0, 0b101, 0b11111):
            assert generator_value(ker, F, gamma) == 0.0

    def test_empty_configuration_has_no_moves(self, rng):
        # K is the identity at the empty set, so (LF)(0) = (L^G)(0)
        ker = random_kernel(G5, 2, rng)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert hat_L_action(ker).apply(G).values[0] == 0.0
        assert generator_value(ker, k_transform(G), 0) == 0.0


class TestDerivedKernels:
    def test_first_order_consistency(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        assert np.max(np.abs(dk.d1[:, 0] - dk.d_bar)) < 1e-12
        assert np.max(np.abs(dk.b1[:, 0] - dk.b_bar)) < 1e-12

    def test_bar_sums(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        w = G5.lp_weights(1.0)[ker.omegas]
        assert np.allclose(dk.d_bar, ker.death @ w, atol=1e-12)
        assert np.allclose(dk.D[0b101], dk.d_bar[0] + dk.d_bar[2])

    def test_d1_superset_sum(self, rng):
        ker = random_kernel(G5, 2, rng)
        dk = derive_kernels(ker)
        w = G5.lp_weights(1.0)
        om = ker.omegas.tolist()
        x, xi = 1, 0b100
        acc = sum(ker.death[x, j] * w[o & ~xi]
                  for j, o in enumerate(om) if o & xi == xi)
        assert dk.d1[x, om.index(xi)] == pytest.approx(acc, rel=1e-12)


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
        for M in (hat_L_bruteforce(ker).matrix, hat_L_closed(ker).matrix,
                  hat_L_continuum_action(ker).dense()):
            assert np.max(np.abs(M - expected)) < 1e-12

    def test_linearity(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        G1 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        G2 = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        lhs = op.apply(G1 + 3.0 * G2).values
        rhs = op.apply(G1).values + 3.0 * op.apply(G2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_copies_the_callers_matrix(self):
        A = np.zeros((G5.n_subsets, G5.n_subsets))
        op = LatticeOperator(G5, A)
        assert A.flags.writeable
        assert not op.matrix.flags.writeable
        assert not np.shares_memory(op.matrix, A)
        A[0, 0] = 1.0  # the caller may keep editing its own array
        assert op.matrix[0, 0] == 0.0

    def test_annihilates_delta_empty_row(self, rng):
        # the empty row of the conjugated operator vanishes: no moves from
        # the void act on quasi-observables
        ker = random_kernel(G5, 2, rng)
        assert np.max(np.abs(hat_L_bruteforce(ker).matrix[0])) < 1e-12


def _seeded_ground(n):
    rng = np.random.default_rng(1000 + n)
    return DiscreteGround(tuple(rng.uniform(0.5, 1.5, n))), rng


def _pinned_kernel(case):
    if case == "contact-8":
        ground, rng = _seeded_ground(8)
        a = normalized_dispersal(ground, rng.uniform(0.2, 1.0, (8, 8)))
        return contact_kernel(ground, a)
    n, k_trunc = {"n0": (0, 0), "n6-full": (6, 6), "n10-k3": (10, 3),
                  "n12-k2": (12, 2)}[case]
    ground, rng = _seeded_ground(n)
    return random_kernel(ground, k_trunc, rng)


# SHA-256 of the matrices' bytes: (hat_L_closed, hat_L_bruteforce).  The
# hat_L_bruteforce digests are as computed before the dense conjugations were
# laid out along the leading axis and the sweeps were cache-blocked.  The
# hat_L_closed digests are those of its entry-wise form, which sums the
# terms of each entry in another order than the covering-pair scatter it
# replaced (the n0 matrix is 0 in both).
PINNED_DIGESTS = {
    "n0": ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
           "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "n6-full": (
        "1db0cc727cff4f0ccdf62b204fcee68159c836d407a820c1ffd407f4fefec3a6",
        "d73cd7cea9ff47bd18995c6f7ff8632af548a620974da1f07d56e32e78c9c842"),
    "n10-k3": (
        "0286ced9c3f7646ddc458d3eaca8332b57bec61802094be792bda6bd463dad1e",
        "1fbeeedcb44cebd5675e7cda918c10baf8d16354f4e47c4cae8becab7c031241"),
    "n12-k2": (
        "8fd343567f988fe7537f3de511e00540178f39fab39307cc69cb9a0b54aeddad",
        "f3bca8c4bb9cded46532db2aba3f77541aa9cf2777410eff8cac654c9f943ca1"),
    "contact-8": (
        "5b3020fc621eb4ca0b68d47449357f25cb5ecf023dfd394f71d50464a4731aed",
        "6e6b67e10eb61a039e46306d947bebbc337d8d56c06e18e53351295c818cbf4e"),
}


class TestDenseLayout:
    @pytest.mark.parametrize("N", [1, 2, 32, 64, 128, 1024])
    def test_transpose_in_place(self, rng, N):
        # below, at and above one 64 x 64 tile
        M = rng.standard_normal((N, N))
        want = M.T.copy()
        assert _transpose_in_place(M) is M
        assert np.array_equal(M, want)

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_matrices_are_bit_identical(self, case):
        ker = _pinned_kernel(case)
        got = tuple(hashlib.sha256(f(ker).matrix.tobytes()).hexdigest()
                    for f in (hat_L_closed, hat_L_bruteforce))
        assert got == PINNED_DIGESTS[case]

    def test_memory_budget(self):
        # tracemalloc sees numpy's buffers; peaks are in units of one
        # 4^n-float matrix at n = 12, the brute-force cap
        ground, rng = _seeded_ground(12)
        unit = 8 * ground.n_subsets ** 2
        cfg = validate_config({
            "name": "mem", "task": "generator-suite", "seed": 3,
            "ground": {"kind": "discrete", "weights": list(ground.weights)},
            "parameters": {"kernels": 1, "k_trunc": 2}})
        ker = random_kernel(ground, 2, rng)
        tracemalloc.start()
        try:
            hat_L_bruteforce(ker)
            brute = tracemalloc.get_traced_memory()[1] / unit
            tracemalloc.reset_peak()
            report = run_experiment(cfg)
            suite = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        assert report["pass"]
        # the brute force holds its matrix and little more; so does the
        # suite, which subtracts the closed form's terms from that matrix
        assert brute <= 1.25
        assert suite <= 1.25


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
        for call in (lambda: op.adjoint_apply(k, z),
                     lambda: hat_L_action(ker).adjoint_apply(k, z)):
            with pytest.raises(ValidationError,
                               match="intensity z must be positive"):
                call()

    def test_involution(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_closed(ker)
        back = adjoint_hat_L(adjoint_hat_L(op))
        assert np.max(np.abs(back.matrix - op.matrix)) < 1e-12


class TestDerivationProperty:
    def test_continuum_operator_is_derivation(self, rng):
        ker = random_kernel(G5, 2, rng)
        op = hat_L_continuum_action(ker)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert derivation_residual_max(op, G) < 1e-10

    def test_single_pair_interface(self, rng):
        ker = random_kernel(G5, 1, rng)
        op = hat_L_continuum_action(ker)
        G = SetFunction(G5, rng.standard_normal(G5.n_subsets))
        assert check_derivation(op, G, 0b001, 0b110) < 1e-10
        with pytest.raises(ValidationError):
            check_derivation(op, G, 0b011, 0b110)

    def test_overlapping_arguments_rejected(self, rng):
        op = hat_L_continuum_action(random_kernel(G5, 1, rng))
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

    @pytest.mark.parametrize("call, fails", [(2, "second"), (3, None)])
    def test_closure_fails_on_a_nan_defect(self, monkeypatch, call, fails):
        # one order's defect NaN, the others 0: Python's max over the orders
        # returns 0 and would count the functional invariant
        residual, calls = generators.invariance_residual, []

        def nan_at_order_2(op, k, z=1.0):
            calls.append(None)
            res = residual(op, k, z)
            return {**res, 2: math.nan} if len(calls) == call else res

        monkeypatch.setattr(generators, "invariance_residual", nan_at_order_2)
        op = hat_L_closed(pure_death_kernel(G5))
        de = indicator_empty(G5)
        if fails:
            with pytest.raises(ValidationError, match=f"{fails}.*nan"):
                convolution_closure_check(op, de, 2.0 * de)
        else:  # the product's defect: not closed
            assert convolution_closure_check(op, de, 2.0 * de) is False

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
        op = hat_L_continuum_action(contact_kernel(G5, a))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5])
    def test_normalized_dispersal_rejects_bad_pattern(self, bad):
        S = np.ones((G5.n_sites, G5.n_sites))
        S[1, 3] = bad
        with pytest.raises(ValidationError, match="off-diagonal"):
            normalized_dispersal(G5, S)

    def test_normalized_dispersal_without_a_scaling(self):
        # on two sites a(0, 1) m(1) = a(1, 0) m(0) = 1 needs m(0) = m(1):
        # the iteration diverges, and no NaN matrix or warning comes out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="did not converge"):
                normalized_dispersal(DiscreteGround((1.0, 2.0)),
                                     np.ones((2, 2)))
