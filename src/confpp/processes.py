"""Point-process models and their exact discrete-layer calculus.

Models are specifications (Poisson intensity, mixing density, Papangelou
evaluator, superposition, or an explicit probability table); on a discrete
ground every specification can be flattened to a probability table over the
subset lattice, from which correlation functionals, Papangelou intensities,
projection densities and positive-definiteness checks are computed exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (Configuration, SetFunction, _discrete, _same_ground,
                   _Table, power_function)
from .errors import (CapacityError, CocycleError, StabilityError,
                     UndefinedConditionalError, ValidationError)
from .transforms import (conv_disjoint, norm_fit, ranked_moebius,
                         ranked_products, ranked_zeta, sweep)

GIBBS_MAX_SITES = 20
MIXING_GRID_POINTS = 512
MIXING_TAIL_MASS = 1e-8


# ---------------------------------------------------------------------------
# mixing densities on the intensity half-line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingDensity:
    """Quadrature mass vector for an intensity mixture ``p(z) dz``; one
    atom is a point mass."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        masses = np.array(self.masses, dtype=float)
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


def point_mass_mixing(z):
    return MixingDensity(np.array([float(z)]), np.array([1.0]))


def exponential_mixing(theta, n_points=MIXING_GRID_POINTS):
    """Midpoint quadrature of ``theta e^{-theta z}``, tail-truncated."""
    if not 0 < theta < math.inf:  # NaN fails too
        raise ValidationError("rate must be positive and finite")
    if (isinstance(n_points, bool)
            or not isinstance(n_points, (int, np.integer)) or n_points < 1):
        raise ValidationError(f"n_points must be an integer >= 1, "
                              f"got {n_points!r}")
    h = -math.log(MIXING_TAIL_MASS) / theta / n_points
    grid = (np.arange(n_points) + 0.5) * h
    masses = theta * np.exp(-theta * grid) * h
    return MixingDensity(grid, masses / masses.sum())


def mixing_convolution(p1, p2):
    """Distribution of the sum of independent mixed intensities.

    The masses convolve on the operands' common grid spacing; a one-atom
    operand, a point mass, has no spacing and shifts the other.
    """
    spaced = [p.grid for p in (p1, p2) if p.grid.size > 1]
    h = spaced[0][1] - spaced[0][0] if spaced else 0.0
    for grid in spaced:
        if abs(grid[1] - grid[0] - h) > 1e-12 * h:
            raise ValidationError("grids must share a common spacing")
        if np.max(np.abs(np.diff(grid) - h)) > 1e-9 * h:
            raise ValidationError("grids must be uniformly spaced")
    masses = np.convolve(p1.masses, p2.masses)
    grid = p1.grid[0] + p2.grid[0] + h * np.arange(masses.size)
    return MixingDensity(grid, masses / masses.sum())


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PapangelouSpec:
    """Conditional-intensity evaluator ``r(gamma, x)`` with its bound.

    ``r_max``, when given, is a stated bound on the intensity (local
    stability, Nguyen & Zessin 1979); ``None`` states none.  The checked
    calls, :meth:`__call__` and :meth:`batched`, raise
    :class:`StabilityError` on a value above ``r_max * (1 + 1e-12)``.

    ``batch``, when given, is the same intensity as a generalized ufunc of
    signature ``(n,d),(m,d)->(m)`` on a window and ``(n),(m)->(m)`` on a
    discrete ground: ``batch(points, proposals)[..., j] == evaluator(gamma,
    proposals[..., j])``, where ``points`` holds the points of ``gamma`` in
    sorted order (coordinate rows on a window, site indices on a discrete
    ground) and ``proposals`` the query points in the same layout.  Leading
    axes are a stack of configurations that all have ``n`` points; a single
    configuration has none.  The verifiers and :func:`papangelou_table` use
    it when present; the birth--death chain always makes one scalar call per
    step.
    """

    evaluator: object
    batch: object = None
    r_max: float | None = None

    def __post_init__(self):
        if self.r_max is None:
            ceiling = sys.float_info.max
        elif 0.0 <= self.r_max < math.inf:  # NaN fails too
            ceiling = min(self.r_max * (1 + 1e-12), sys.float_info.max)
        else:
            raise ValidationError("r_max must be None or a finite bound >= 0")
        object.__setattr__(self, "_ceiling", ceiling)  # largest value passed

    def __call__(self, gamma, x):
        value = float(self.evaluator(gamma, x))
        if not 0.0 <= value <= self._ceiling:  # NaN fails too
            self._reject(value)
        return value

    def batched(self, points, proposals):
        """``batch(points, proposals)`` with the checks of ``__call__``, on
        the whole stack at once; the first failing value is named."""
        values = np.asarray(self.batch(points, proposals), dtype=float)
        ok = (0.0 <= values) & (values <= self._ceiling)  # NaN fails too
        if not ok.all():
            self._reject(values[~ok][0].item())
        return values

    def _reject(self, value):
        if 0.0 <= value < math.inf:
            raise StabilityError(f"conditional intensity {value} exceeds "
                                 f"the stated bound {self.r_max}")
        raise ValidationError(f"conditional intensity must be finite and "
                              f"nonnegative, got {value!r}")


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
class DiscreteTable(_Table):
    """Explicit law on the subset lattice.

    ``probs`` sums to one; ``overlap_probs`` records, per subset, the part of
    the mass that a measure convolution assigned from non-disjoint pairs (an
    atomic-ground artifact; zero for directly specified models).
    """

    ground: object
    probs: np.ndarray
    overlap_probs: np.ndarray = None

    _arrays = ("probs", "overlap_probs")

    def _check(self):
        if np.any(self.probs < 0):
            raise ValidationError("probabilities must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValidationError("probabilities must sum to 1 within 1e-12")
        if np.any(self.overlap_probs < -1e-15):
            raise ValidationError("overlap mass must be nonnegative")
        if np.any(self.overlap_probs > self.probs + 1e-12):
            raise ValidationError("overlap mass exceeds total mass")

    def disjoint_part(self):
        """Unnormalized sub-measure from disjoint pairs only."""
        return self.probs - self.overlap_probs


def poisson_table(ground, z):
    w = _discrete(ground, "poisson_table").lp_weights(z)
    return DiscreteTable._take(ground, w / w.sum(), None)


def _batch_values(batch, points, proposals, shape=None):
    """``batch(points, proposals)`` as floats, checked to hold one value per
    proposal: ``shape``, by default that of a window's proposal rows."""
    values = np.asarray(batch(points, proposals), dtype=float)
    shape = proposals.shape[:-1] if shape is None else shape
    if values.shape != shape:
        raise ValidationError(f"batch returned shape {values.shape}, not "
                              f"{shape}, one value per proposal")
    return values


def papangelou_table(ground, spec):
    """``R[x, gamma] = r(gamma, x)``, and 0 for ``x`` in ``gamma``.

    One :meth:`PapangelouSpec.batched` call per subset size ``k``, on the
    stack of every ``k``-site mask's sites against its free sites; a spec
    without ``batch`` makes one checked scalar call per mask and free site.
    The ground and site cap are checked before any allocation or call."""
    if _discrete(ground, "papangelou_table").n_sites > GIBBS_MAX_SITES:
        raise CapacityError(f"Gibbs tables limited to {GIBBS_MAX_SITES} sites")
    n = ground.n_sites
    sites = np.arange(n)
    size = ground.subset_size
    R = np.zeros((n, ground.n_subsets))
    for k in range(n + 1):
        masks = np.flatnonzero(size == k)
        held = (masks[:, np.newaxis] >> sites & 1) == 1
        every = np.broadcast_to(sites, held.shape)
        on = every[held].reshape(masks.size, k)  # ascending in each row
        off = every[~held].reshape(masks.size, n - k)
        if spec.batch is None:
            gammas = (Configuration(ground, mask) for mask in masks.tolist())
            values = np.array([[spec(gamma, x) for x in row]
                               for gamma, row in zip(gammas, off.tolist())])
        else:
            values = _batch_values(spec.batched, on, off, off.shape)
        R[off, masks[:, np.newaxis]] = values
    return R


def gibbs_table(ground, spec):
    """Flatten a Papangelou evaluator by telescoping from the void.

    The cocycle ``R[x, g] R[y, g u x] = R[y, g] R[x, g u y]`` of
    :func:`papangelou_table` must hold to 1e-9 relative for every ``g`` and
    ``x < y`` outside it, or :class:`CocycleError` names a failing mask.
    Then ``u(g u x) = u(g) R[x, g] m_x`` fills the masks of lowest bit ``i``
    as one strided slice, from the highest bit down.
    """
    return _gibbs_law(ground, papangelou_table(ground, spec))


def _gibbs_law(ground, R):
    """:func:`gibbs_table` from a :func:`papangelou_table`."""
    for y in range(ground.n_sites):
        for x in range(y):  # masks as (high, bit y, middle, bit x, low)
            rx, ry = (R[i].reshape(-1, 2, 1 << y - x - 1, 2, 1 << x)
                      for i in (x, y))
            lhs = rx[:, 0, :, 0] * ry[:, 0, :, 1]  # R[x, g] R[y, g u x]
            rhs = ry[:, 0, :, 0] * rx[:, 1, :, 0]  # R[y, g] R[x, g u y]
            bad = ~(abs(lhs - rhs) <= 1e-9 * np.maximum(lhs, rhs))  # and NaN
            if bad.any():
                high, mid, low = np.unravel_index(np.argmax(bad), bad.shape)
                raise CocycleError(f"intensities are path-dependent at mask "
                                   f"{high << y + 1 | mid << x + 1 | low:#b} "
                                   f"for sites {x} and {y}")
    u = np.zeros(ground.n_subsets)
    u[0] = 1.0
    for i in reversed(range(ground.n_sites)):
        u[1 << i::2 << i] = (u[0::2 << i] * R[i, 0::2 << i]
                             * ground.site_mass(i))
    return DiscreteTable._take(ground, u / u.sum(), None)


def to_discrete_table(model, ground=None):
    """Flatten any model specification to an explicit lattice law."""
    if isinstance(model, DiscreteTable):
        return model
    _discrete(ground, "to_discrete_table")
    if isinstance(model, Poisson):
        return poisson_table(ground, model.z)
    if isinstance(model, MixedPoisson):
        probs = np.zeros(ground.n_subsets)
        for z, mass in zip(model.mixing.grid, model.mixing.masses):
            w = ground.lp_weights(float(z))
            probs += mass * w / w.sum()
        return DiscreteTable._take(ground, probs, None)
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
    ground = _same_ground(mu1, mu2)
    ranked = ranked_products(mu1.probs, mu2.probs, ground,
                             2 * ground.n_sites)
    size = ground.subset_size
    # every rank-pair sum is a sum of products of probabilities, so only
    # rounding can push it below zero
    disjoint = np.maximum(ranked[size, np.arange(size.size)], 0.0)
    ranked *= np.arange(ranked.shape[0])[:, np.newaxis] > size
    overlap = np.maximum(ranked.sum(axis=0), 0.0)
    return DiscreteTable._take(ground, disjoint + overlap, overlap)


# ---------------------------------------------------------------------------
# correlation functionals and projections
# ---------------------------------------------------------------------------

def _table_correlation(ground, mass_vector):
    rho = sweep(np.array(mass_vector, dtype=float), range(ground.n_sites),
                superset=True)
    return rho / ground.lp_weights(1.0)


def correlation_functional(model, ground=None):
    """Correlation functional ``k(eta)`` of a model, exact on the lattice.

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
    if isinstance(model, DiscreteTable):
        return SetFunction._take(
            model.ground, _table_correlation(model.ground, model.probs))
    if isinstance(model, Gibbs):
        raise ValidationError(
            "flatten Gibbs models with to_discrete_table first")
    _discrete(ground, "correlation_functional")
    if isinstance(model, Poisson):
        return power_function(ground, model.z)
    if isinstance(model, MixedPoisson):
        size = ground.subset_size
        vals = np.zeros(ground.n_subsets)
        for z, mass in zip(model.mixing.grid, model.mixing.masses):
            vals += mass * float(z) ** size
        return SetFunction._take(ground, vals)
    if isinstance(model, Superposition):
        return conv_disjoint(correlation_functional(model.left, ground),
                             correlation_functional(model.right, ground))
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
    out *= norm
    return SetFunction._take(k.ground, out)


def recover_correlation(density, z):
    """Integrate a local density against the Poisson law: inverse projection."""
    out, norm = _reference_sweep(density, z, 1.0)
    out /= norm
    return SetFunction._take(density.ground, out)


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
    ground = _same_ground(table, gamma)
    if not (isinstance(x, (int, np.integer)) and 0 <= x < ground.n_sites):
        raise ValidationError(f"site {x!r} is not an integer in range")
    g, x = gamma.mask, int(x)
    bit = 1 << x
    if g & bit:
        raise ValidationError("site already occupied")
    p = table.probs[g]
    if p <= 0.0:
        raise UndefinedConditionalError(
            f"conditioning configuration {g:#b} has zero mass")
    return float(table.probs[g | bit] / (p * ground.site_mass(x)))


def pairwise_gibbs_spec(ground, couplings, z=1.0):
    """Pairwise-energy model: ``r(gamma, x) = z exp(-sum_{y in gamma} J[x,y])``.

    A coupling of ``+inf`` is a hard core."""
    J = np.asarray(couplings, dtype=float)
    n = ground.n_sites
    if not 0 < z < math.inf:  # NaN fails too
        raise ValidationError("activity z must be positive and finite")
    if (J.shape != (n, n) or not np.all(J > -math.inf)  # NaN fails too
            or not np.allclose(J, J.T, atol=1e-12)):
        raise ValidationError("couplings must be a symmetric site matrix "
                              "above -inf, without NaN")

    def boltzmann(energy):
        """``z exp(-energy)``; ``inf`` where ``exp`` overflows, which the
        spec's finiteness check rejects."""
        with np.errstate(over="ignore"):
            return z * np.exp(-energy)

    def evaluator(gamma, x):
        return boltzmann(sum(J[x, y] for y in gamma.sites))

    def batch(sites, proposals):
        sites = np.asarray(sites, dtype=int)
        proposals = np.asarray(proposals, dtype=int)
        energy = np.zeros(np.broadcast_shapes(sites.shape[:-1] + (1,),
                                              proposals.shape))
        for k in range(sites.shape[-1]):  # site by site, as the scalar sum
            energy += J[proposals, sites[..., k, np.newaxis]]
        return boltzmann(energy)

    return PapangelouSpec(evaluator, batch=batch)


def _convolution_sides(mu1, mu2, R1, R2):
    """The two sides of :func:`gibbs_convolution_check`'s identity, as
    ``(n, 2^n)`` tables that are 0 where ``x`` is in ``gamma``."""
    g = mu1.ground
    rho = convolve_measures(mu1, mu2).disjoint_part()
    f1, f2 = ranked_zeta(g, mu1.probs, mu2.probs)
    cols = np.arange(g.n_subsets)
    lhs, rhs = np.zeros_like(R1), np.zeros_like(R1)
    for x in range(g.n_sites):
        g1, g2 = ranked_zeta(g, mu1.probs * R1[x], mu2.probs * R2[x])
        # g1 * f2 + f1 * g2 through one Moebius sweep, by linearity
        rhs[x] = ranked_moebius([(g1, f2), (f1, g2)],
                                g.n_sites)[g.subset_size, cols]
        shape = (-1, 2, 1 << x)  # masks as (high bits, bit x, low bits)
        lhs[x].reshape(shape)[:, 0] = rho.reshape(shape)[:, 1] / g.site_mass(x)
        rhs[x].reshape(shape)[:, 1] = 0.0
    return lhs, rhs


def gibbs_convolution_check(ground, spec1, spec2):
    """Exact certificate of the Gibbs convolution identity on the lattice.

    With ``mu_i = gibbs_table(ground, spec_i)``, the disjoint part ``rho`` of
    ``mu1 * mu2`` satisfies ``rho(gamma u x) / m_x = sum_{g1 u g2 = gamma
    disjoint} mu1(g1) mu2(g2) [r1(g1, x) + r2(g2, x)]`` for ``x`` not in
    ``gamma`` (Nguyen & Zessin, 1979).  Returns ``(residual, gamma, x)``: the
    largest gap relative to the largest left side, at the least ``x``, then
    the least ``gamma``, where it occurs.
    """
    R1, R2 = papangelou_table(ground, spec1), papangelou_table(ground, spec2)
    lhs, rhs = _convolution_sides(_gibbs_law(ground, R1),
                                  _gibbs_law(ground, R2), R1, R2)
    gap = np.abs(lhs - rhs)
    x, gamma = map(int, np.unravel_index(np.argmax(gap), gap.shape))
    return float(gap[x, gamma] / lhs.max()), Configuration(ground, gamma), x
