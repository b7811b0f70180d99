"""Point-process models and their exact discrete-layer calculus.

Models are specifications (Poisson intensity, mixing density, Papangelou
evaluator, superposition, or an explicit probability table); on a discrete
ground every specification can be flattened to a probability table over the
subset lattice, from which correlation functionals, Papangelou intensities,
projection densities and positive-definiteness checks are computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Configuration, SetFunction, power_function
from .errors import (CapacityError, CocycleError, GroundMismatchError,
                     UndefinedConditionalError, ValidationError)
from .transforms import conv_disjoint, norm_fit, ranked_products, sweep

GIBBS_MAX_SITES = 16
MIXING_GRID_POINTS = 512
MIXING_TAIL_MASS = 1e-8


# ---------------------------------------------------------------------------
# mixing densities on the intensity half-line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingDensity:
    """Quadrature mass vector for an intensity mixture ``p(z) dz``."""

    grid: np.ndarray
    masses: np.ndarray
    family: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if grid.ndim != 1 or grid.shape != masses.shape or grid.size == 0:
            raise ValidationError("grid and masses must be equal-length vectors")
        # each test is written so that NaN fails it
        if not (np.all(0 < grid) and np.all(grid < math.inf)
                and np.all(np.diff(grid) > 0)):
            raise ValidationError(
                "grid must be finite, positive and strictly increasing")
        if not np.all(masses >= 0):
            raise ValidationError("masses must be nonnegative")
        if not abs(masses.sum() - 1.0) <= 1e-9:
            raise ValidationError("masses must sum to 1 within 1e-9")
        grid.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "masses", masses)

    def moment(self, n):
        return float(np.dot(self.masses, self.grid ** n))

    def to_json(self):
        return {"grid": self.grid.tolist(), "masses": self.masses.tolist(),
                "family": list(self.family)}


def point_mass_mixing(z):
    return MixingDensity(np.array([float(z)]), np.array([1.0]),
                         family=("point", float(z)))


def _quadrature_mixing(pdf, z_max, n_points, family):
    h = z_max / n_points
    grid = (np.arange(n_points) + 0.5) * h
    masses = pdf(grid) * h
    return MixingDensity(grid, masses / masses.sum(), family=family)


def exponential_mixing(theta, n_points=MIXING_GRID_POINTS):
    """Midpoint quadrature of ``theta e^{-theta z}``, tail-truncated."""
    if not 0 < theta < math.inf:  # NaN fails too
        raise ValidationError("rate must be positive and finite")
    z_max = -math.log(MIXING_TAIL_MASS) / theta
    return _quadrature_mixing(lambda z: theta * np.exp(-theta * z), z_max,
                              n_points, ("exponential", float(theta)))


def gamma_mixing(shape, rate, n_points=MIXING_GRID_POINTS):
    """Midpoint quadrature of the Gamma(shape, rate) density."""
    if not (0 < shape < math.inf and 0 < rate < math.inf):  # NaN fails too
        raise ValidationError("shape and rate must be positive and finite")
    from scipy.stats import gamma as gamma_dist
    z_max = float(gamma_dist.ppf(1.0 - MIXING_TAIL_MASS, shape, scale=1.0 / rate))
    pdf = lambda z: gamma_dist.pdf(z, shape, scale=1.0 / rate)
    return _quadrature_mixing(pdf, z_max, n_points, ("gamma", float(shape),
                                                     float(rate)))


def mixing_convolution(p1, p2):
    """Distribution of the sum of independent mixed intensities.

    Point masses shift the other operand; exponential pairs with a common
    rate collapse to the Gamma closed form; general vectors convolve on a
    shared uniform grid.
    """
    if p1.family[:1] == ("point",):
        z0 = p1.grid[0]
        return MixingDensity(p2.grid + z0, p2.masses,
                             family=("shifted",) if p2.family[:1] != ("point",)
                             else ("point", float(z0 + p2.grid[0])))
    if p2.family[:1] == ("point",):
        return mixing_convolution(p2, p1)
    if (p1.family[:1] == ("exponential",) and p2.family[:1] == ("exponential",)
            and abs(p1.family[1] - p2.family[1]) < 1e-15):
        return gamma_mixing(2.0, p1.family[1], n_points=max(p1.grid.size,
                                                            p2.grid.size))
    h1 = p1.grid[1] - p1.grid[0] if p1.grid.size > 1 else None
    h2 = p2.grid[1] - p2.grid[0] if p2.grid.size > 1 else None
    if h1 is None or h2 is None or abs(h1 - h2) > 1e-12 * h1:
        raise ValidationError("grids must share a common spacing")
    if (np.max(np.abs(np.diff(p1.grid) - h1)) > 1e-9 * h1
            or np.max(np.abs(np.diff(p2.grid) - h1)) > 1e-9 * h1):
        raise ValidationError("grids must be uniformly spaced")
    masses = np.convolve(p1.masses, p2.masses)
    grid = p1.grid[0] + p2.grid[0] + h1 * np.arange(masses.size)
    return MixingDensity(grid, masses / masses.sum(), family=("convolved",))


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PapangelouSpec:
    """Conditional-intensity evaluator ``r(gamma, x)`` with a descriptor.

    ``batch``, when given, is the same intensity on arrays:
    ``batch(points, proposals)[j] == evaluator(gamma, proposals[j])``, where
    ``points`` holds the points of ``gamma`` in sorted order (an ``(n, d)``
    coordinate array on a window, the site indices on a discrete ground)
    and ``proposals`` holds the query points in the same layout.  The
    verifiers use it for their proposal points when it is present; the
    birth--death chain always makes one scalar call per step.
    """

    evaluator: object
    descriptor: dict = field(default_factory=dict)
    batch: object = None

    def __call__(self, gamma, x):
        value = float(self.evaluator(gamma, x))
        if not 0.0 <= value < math.inf:  # NaN fails too
            raise ValidationError(
                f"conditional intensity must be finite and nonnegative, "
                f"got {value!r}")
        return value

    def batched(self, points, proposals):
        """``batch(points, proposals)`` with the checks of ``__call__``."""
        values = np.asarray(self.batch(points, proposals), dtype=float)
        # a Python pass: cheaper than numpy's per-call overhead at the
        # verifiers' sizes (64 proposals)
        for value in values.tolist():
            if not 0.0 <= value < math.inf:
                raise ValidationError(
                    f"conditional intensity must be finite and nonnegative, "
                    f"got {value!r}")
        return values


@dataclass(frozen=True)
class Poisson:
    z: float

    def __post_init__(self):
        if not 0 < self.z < math.inf:  # NaN fails too
            raise ValidationError("intensity must be positive and finite")


@dataclass(frozen=True)
class MixedPoisson:
    mixing: MixingDensity


@dataclass(frozen=True)
class Gibbs:
    papangelou: PapangelouSpec


@dataclass(frozen=True)
class Superposition:
    left: object
    right: object


@dataclass(frozen=True)
class DiscreteTable:
    """Explicit law on the subset lattice.

    ``probs`` sums to one; ``overlap_probs`` records, per subset, the part of
    the mass that a measure convolution assigned from non-disjoint pairs (an
    atomic-ground artifact; zero for directly specified models).
    """

    ground: object
    probs: np.ndarray
    overlap_probs: np.ndarray = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.ground.n_subsets,):
            raise ValidationError("probability table has wrong length")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValidationError("probabilities must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError("probabilities must sum to 1 within 1e-12")
        overlap = self.overlap_probs
        overlap = (np.zeros_like(probs) if overlap is None
                   else np.asarray(overlap, dtype=float))
        if overlap.shape != probs.shape or np.any(overlap < -1e-15):
            raise ValidationError("overlap mass table malformed")
        if np.any(overlap > probs + 1e-12):
            raise ValidationError("overlap mass exceeds total mass")
        probs.setflags(write=False)
        overlap.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "overlap_probs", overlap)

    @property
    def overlap_mass(self):
        return float(self.overlap_probs.sum())

    def disjoint_part(self):
        """Unnormalized sub-measure from disjoint pairs only."""
        return self.probs - self.overlap_probs

    def to_json(self):
        return {"probs": self.probs.tolist(),
                "overlap_probs": self.overlap_probs.tolist()}


def poisson_table(ground, z):
    w = ground.lp_weights(z)
    return DiscreteTable(ground, w / w.sum())


def gibbs_table(ground, spec, tol=1e-9):
    """Flatten a Papangelou evaluator by telescoping energies from the void.

    ``u(gamma u x) = u(gamma) r(gamma, x) m(x)``, built up the lattice along
    lowest-bit insertion paths; every alternative last-insertion is checked
    for path independence (the cocycle condition) before normalizing.  That
    is O(n^2 2^n) evaluator calls, hence the cap of ``GIBBS_MAX_SITES``.
    """
    n = ground.n_sites
    if n > GIBBS_MAX_SITES:
        raise CapacityError(f"gibbs_table limited to {GIBBS_MAX_SITES} sites")
    u = np.zeros(ground.n_subsets)
    u[0] = 1.0
    order = np.argsort(ground.subset_size, kind="stable")
    for gamma in order:
        gamma = int(gamma)
        if gamma == 0:
            continue
        low = gamma & -gamma
        x = low.bit_length() - 1
        prev = gamma & ~low
        u[gamma] = (u[prev]
                    * spec(Configuration(ground, prev), x)
                    * ground.site_mass(x))
        for y in range(n):
            bit = 1 << y
            if bit == low or not gamma & bit:
                continue
            alt = (u[gamma & ~bit]
                   * spec(Configuration(ground, gamma & ~bit), y)
                   * ground.site_mass(y))
            scale = max(abs(u[gamma]), abs(alt), 1e-300)
            if abs(alt - u[gamma]) > tol * scale:
                raise CocycleError(
                    "conditional intensities are path-dependent at mask "
                    f"{gamma:#b} (relative gap {abs(alt - u[gamma]) / scale:.3e})")
    return DiscreteTable(ground, u / u.sum())


def to_discrete_table(model, ground=None):
    """Flatten any model specification to an explicit lattice law."""
    if isinstance(model, DiscreteTable):
        return model
    if isinstance(model, Poisson):
        return poisson_table(ground, model.z)
    if isinstance(model, MixedPoisson):
        probs = np.zeros(ground.n_subsets)
        for z, mass in zip(model.mixing.grid, model.mixing.masses):
            w = ground.lp_weights(float(z))
            probs += mass * w / w.sum()
        return DiscreteTable(ground, probs)
    if isinstance(model, Gibbs):
        return gibbs_table(ground, model.papangelou)
    if isinstance(model, Superposition):
        return convolve_measures(to_discrete_table(model.left, ground),
                                 to_discrete_table(model.right, ground))
    raise ValidationError(f"unsupported model {type(model).__name__}")


def convolve_measures(mu1, mu2):
    """Law of the union of independent draws, overlap mass tracked.

    On an atomic ground two independent draws can share a site; that mass is
    still assigned to the union but reported in ``overlap_probs`` so identity
    tests can condition on the collision-free event.  Both parts come from
    the rank-pair split of the covering product: a pair ``(a, b)`` covering
    ``eta`` is disjoint when ``|a| + |b| = |eta|`` and overlaps when the
    ranks sum to more.
    """
    if mu1.ground != mu2.ground:
        raise GroundMismatchError("operands on different grounds")
    ground = mu1.ground
    ranked = ranked_products(mu1.probs, mu2.probs, ground,
                             2 * ground.n_sites)
    size = ground.subset_size
    # every rank-pair sum is a sum of products of probabilities, so only
    # rounding can push it below zero
    disjoint = np.maximum(ranked[size, np.arange(size.size)], 0.0)
    ranked *= np.arange(ranked.shape[0])[:, np.newaxis] > size
    overlap = np.maximum(ranked.sum(axis=0), 0.0)
    return DiscreteTable(ground, disjoint + overlap, overlap)


# ---------------------------------------------------------------------------
# correlation functionals and projections
# ---------------------------------------------------------------------------

def _table_correlation(ground, mass_vector):
    rho = sweep(np.array(mass_vector, dtype=float), range(ground.n_sites),
                superset=True)
    return rho / ground.lp_weights(1.0)


def correlation_functional(model, ground=None, exclude_overlap=False):
    """Correlation functional ``k(eta)`` of a model, exact on the lattice.

    ``exclude_overlap`` drops the collision mass of a convolved table before
    projecting (the continuum-faithful reading).

    Model specifications give their continuum correlation functional read on
    the ground's sites: ``Poisson(z)`` gives ``z^|eta|`` and ``MixedPoisson``
    the mixture of those, whatever the site masses.  A flattened law gives
    its own lattice functional instead: ``to_discrete_table(Poisson(z),
    ground)`` holds at most one point per site, and its functional is
    ``prod_{i in eta} z / (1 + z m_i)``.  The two readings differ, and where
    ``z m_i > 1`` at some site the power function fails the lattice
    positivity check (:func:`lenard_pd_check`) while the table passes it.
    Flatten first for the lattice law's functional.
    """
    if isinstance(model, Poisson):
        return power_function(ground, model.z, label=f"poisson[{model.z}]")
    if isinstance(model, MixedPoisson):
        size = ground.subset_size
        vals = np.zeros(ground.n_subsets)
        for z, mass in zip(model.mixing.grid, model.mixing.masses):
            vals += mass * float(z) ** size
        return SetFunction(ground, vals, "mixed_poisson")
    if isinstance(model, Superposition):
        g = ground
        return conv_disjoint(
            correlation_functional(model.left, g, exclude_overlap),
            correlation_functional(model.right, g, exclude_overlap))
    if isinstance(model, DiscreteTable):
        mass = model.disjoint_part() if exclude_overlap else model.probs
        return SetFunction(model.ground,
                           _table_correlation(model.ground, mass), "k_table")
    if isinstance(model, Gibbs):
        raise ValidationError(
            "flatten Gibbs models with to_discrete_table first")
    raise ValidationError(f"unsupported model {type(model).__name__}")


def _reference_sweep(f, z, sign):
    """Superset sweep of ``f`` with per-site weight ``sign * z * m_i``.

    ``out(gamma) = sum_{eta n gamma = 0} sign^{|eta|} wt_z(eta)
    f(gamma u eta)`` in O(n 2^n); returned with ``N_z = prod_i (1 + z m_i)``.
    """
    if not 0 < z < math.inf:
        raise ValidationError(
            "reference intensity must be positive and finite")
    ground = f.ground
    weights = z * np.asarray(ground.weights)
    out = sweep(np.array(f.values), range(ground.n_sites),
                superset=True, sign=sign, weights=weights)
    return out, float(np.prod(1.0 + weights))


def projection_density(k, z):
    """Local density of the underlying law w.r.t. the normalized reference law.

    ``density(gamma) = N_z * sum over eta in the complement of gamma of
    (-1)^{|eta|} k(gamma u eta) wt_z(eta)`` where ``N_z = prod_i (1 + z m_i)``
    converts the raw alternating sum (a density w.r.t. the unnormalized
    lattice measure) into a density w.r.t. the normalized reference law,
    matching the weights used by :func:`recover_correlation`.
    """
    out, norm = _reference_sweep(k, z, -1.0)
    return SetFunction(k.ground, norm * out, f"density[{k.label}]")


def recover_correlation(density, z):
    """Integrate a local density against the Poisson law: inverse projection."""
    out, norm = _reference_sweep(density, z, 1.0)
    return SetFunction(density.ground, out / norm, f"k[{density.label}]")


def lenard_pd_check(k, tol=1e-10):
    """Exact Lenard positivity certificate of a correlation functional.

    ``<Kinv F, k> = sum_xi F(xi) mu(xi)``, where ``mu``, the superset Moebius
    sweep of ``k * wt_1``, is the law whose correlation functional is ``k``;
    so ``k`` passes for every ``F >= 0`` exactly when ``min mu >= -tol``.
    Returns ``(passed, worst, witness)``: ``worst = min mu`` and the least
    mask attaining it, as a :class:`Configuration`.
    """
    ground = k.ground
    mu = sweep(k.values * ground.lp_weights(1.0), range(ground.n_sites),
               superset=True, sign=-1.0)
    best = int(np.argmin(mu))  # argmin returns the first (least) mask
    worst = float(mu[best])
    return worst >= -tol, worst, Configuration(ground, best)


@dataclass(frozen=True)
class UniquenessReport:
    s_values: tuple
    verdict: str
    C: float
    delta: float
    norm: float


def uniqueness_diagnostic(k, N):
    """Growth diagnostics for the underlying moment problem.

    ``s_n`` sums ``k`` against the site masses at each order.  The growth
    exponent ``delta`` is fitted as the smallest value in {0, 1, 2} for which
    the per-order scale ``c_n = max_{|eta|=n} (|k(eta)| / (n!)^delta)^{1/n}``
    stops growing beyond order one; membership at ``delta <= 2`` yields the
    ``unique_by_K_C2`` verdict, otherwise the report is inconclusive (a
    finite lattice cannot witness divergence).
    """
    ground = k.ground
    if not 1 <= N <= ground.n_sites:
        raise ValidationError("diagnostic depth must lie in [1, n_sites]")
    size = ground.subset_size
    mass = ground.subset_mass
    s_values = tuple(
        float(np.dot(k.values[size == n_], mass[size == n_]))
        for n_ in range(1, N + 1))
    orders = range(1, ground.n_sites + 1)
    for delta in (0.0, 1.0, 2.0):
        c = []
        for n_ in orders:
            peak = float(np.max(np.abs(k.values[size == n_])))
            c.append((peak / math.factorial(n_) ** delta) ** (1.0 / n_))
        if all(c[i + 1] <= c[i] + 1e-12 for i in range(1, len(c) - 1)):
            C = max(max(c), 1e-12)
            fit = norm_fit(k, C, delta)
            return UniquenessReport(s_values, "unique_by_K_C2", C, delta,
                                    fit.norm)
    return UniquenessReport(s_values, "inconclusive", float("nan"),
                            float("nan"), float("nan"))


# ---------------------------------------------------------------------------
# Papangelou intensities
# ---------------------------------------------------------------------------

def papangelou_of_table(table, gamma, x):
    """Discrete conditional intensity ``mu(gamma u x) / (mu(gamma) m(x))``."""
    g = gamma.mask
    bit = 1 << int(x)
    if g & bit:
        raise ValidationError("site already occupied")
    p = table.probs[g]
    if p <= 0.0:
        raise UndefinedConditionalError(
            f"conditioning configuration {g:#b} has zero mass")
    return float(table.probs[g | bit] / (p * table.ground.site_mass(int(x))))


def pairwise_gibbs_spec(ground, couplings, z=1.0):
    """Pairwise-energy model: ``r(gamma, x) = z exp(-sum_{y in gamma} J[x,y])``."""
    J = np.asarray(couplings, dtype=float)
    n = ground.n_sites
    if J.shape != (n, n) or not np.allclose(J, J.T, atol=1e-12):
        raise ValidationError("couplings must be a symmetric site matrix")

    def evaluator(gamma, x):
        energy = sum(J[x, y] for y in gamma.sites)
        return z * math.exp(-energy)

    def batch(sites, proposals):
        proposals = np.asarray(proposals, dtype=int)
        energy = np.zeros(proposals.shape)
        for y in np.asarray(sites, dtype=int).tolist():
            energy += J[proposals, y]  # site by site, as the scalar sum
        return np.array([z * math.exp(-e) for e in energy.tolist()])

    return PapangelouSpec(evaluator, {"model": "pairwise", "z": z},
                          batch=batch)


def check_cocycle(spec, samples, tol=1e-9):
    """Max relative defect of ``r(g u y, x) r(g, y) = r(g u x, y) r(g, x)``."""
    worst = 0.0
    for gamma, x, y in samples:
        lhs = spec(gamma.with_point(y), x) * spec(gamma, y)
        rhs = spec(gamma.with_point(x), y) * spec(gamma, x)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, worst <= tol


def additivity_residual(r1, r2, samples):
    """Necessary-condition probe for additivity of convolved intensities.

    Each sample ``(gamma_plus, gamma_minus, x, y)`` evaluates the product of
    the three bracketed factors; returns summary statistics of ``|residual|``.
    """
    values = []
    for gp, gm, x, y in samples:
        first = r1(gp, x) * r2(gm, x)
        middle = r1(gp, x) * r2(gm, y) - r1(gp, y) * r2(gm, x)
        last = (r1(gp.with_point(x), y) * r2(gm, y)
                - r2(gm.with_point(x), y) * r1(gp, y))
        values.append(abs(first * middle * last))
    arr = np.array(values) if values else np.zeros(1)
    return {"max": float(arr.max()), "mean": float(arr.mean()),
            "count": len(values)}
