"""Continuum Monte Carlo layer: samplers and statistical identity verifiers.

Poisson and mixed-Poisson windows are sampled directly; Gibbs laws by a
spatial birth--death Metropolis--Hastings chain.  The Mecke and GNZ integral
identities are verified by paired estimators with a fixed |z| <= 4 decision
rule; MCMC standard errors use batch means.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (BoxWindow, Configuration, split_streams,
                   uniform_configuration)
from .errors import OverlapError, StabilityError, ValidationError
from .processes import (Gibbs, MixedPoisson, PapangelouSpec, Poisson,
                        Superposition, mixing_convolution, point_mass_mixing)

Z_THRESHOLD = 4.0
GNZ_BATCHES = 32


@dataclass(frozen=True)
class RunPlan:
    """Replication plan: window, replica count, MCMC schedule, seed."""

    window: BoxWindow
    replicas: int
    master_seed: int
    burn_in: int = 10_000
    thinning: int = 10
    proposal_points: int = 64

    def __post_init__(self):
        if not isinstance(self.window, BoxWindow):
            raise ValidationError("plan window must be a continuum box")
        if self.replicas < 1 or self.burn_in < 0 or self.thinning < 0:
            raise ValidationError(
                "need replicas >= 1 and nonnegative burn_in/thinning")
        if self.proposal_points < 1:
            raise ValidationError("need at least one proposal point")

    def to_json(self):
        return {"window": [list(b) for b in self.window.box],
                "replicas": self.replicas, "master_seed": self.master_seed,
                "burn_in": self.burn_in, "thinning": self.thinning,
                "proposal_points": self.proposal_points}


@dataclass(frozen=True)
class IdentityReport:
    """Two-sided estimate of an integral identity with a z-score verdict."""

    identity: str
    lhs_mean: float
    rhs_mean: float
    lhs_se: float
    rhs_se: float
    z_score: float
    passed: bool
    n_effective: int

    def to_json(self):
        return {"identity": self.identity, "lhs": self.lhs_mean,
                "rhs": self.rhs_mean, "lhs_se": self.lhs_se,
                "rhs_se": self.rhs_se, "z_score": self.z_score,
                "pass": self.passed, "n_effective": self.n_effective}


# ---------------------------------------------------------------------------
# direct samplers
# ---------------------------------------------------------------------------

def sample_poisson(window, z, rng):
    """One Poisson(z) configuration: Poisson count, i.i.d. uniform points.

    A draw that repeats a point is redrawn with the same count (see
    :func:`~confpp.core.uniform_configuration`).
    """
    if not 0 < z < math.inf:  # NaN fails too
        raise ValidationError("intensity must be positive and finite")
    return uniform_configuration(window, rng,
                                 int(rng.poisson(z * window.volume)))


def sample_mixed_poisson(window, mixing, rng):
    """Draw an intensity from the mixing masses, then a Poisson sample."""
    j = int(rng.choice(mixing.grid.size, p=mixing.masses))
    return sample_poisson(window, float(mixing.grid[j]), rng)


def superpose(gamma1, gamma2):
    """Sorted merge of two configurations on one window.

    A coincident coordinate pair is rejected: unions are formed pointwise
    and a collision would silently drop a point.
    """
    if gamma1.ground != gamma2.ground:
        raise ValidationError("configurations on different windows")
    merged = gamma1.points + gamma2.points
    if len(set(merged)) != len(merged):
        raise OverlapError("superposed configurations share a point")
    return Configuration(gamma1.ground, points=tuple(sorted(merged)))


@dataclass(frozen=True)
class PointBatch:
    """A ragged batch of window samples.

    Sample ``i`` is ``coords[offsets[i]:offsets[i + 1]]``, an ``(n_i, d)``
    block of rows in lexicographic order with no repeated row, as the points
    of a :class:`~confpp.core.Configuration` are.  ``overlap_events`` counts
    the samples that were redrawn because a row repeated.
    """

    offsets: np.ndarray
    coords: np.ndarray
    overlap_events: int = 0

    def __len__(self):
        return self.offsets.size - 1

    @property
    def counts(self):
        """Points per sample, shape ``(len(self),)``."""
        return np.diff(self.offsets)

    @classmethod
    def from_configurations(cls, samples):
        """The points of a nonempty sequence of window configurations."""
        if not samples:
            raise ValidationError("need at least one sample")
        d = samples[0].ground.dimension
        offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum([len(g.points) for g in samples], out=offsets[1:])
        coords = np.array([c for g in samples for p in g.points for c in p],
                          dtype=float).reshape(-1, d)
        return cls(offsets, coords)


def _model_counts(model, volume, rng, size):
    """Point counts of ``size`` draws: per component, mixing atoms by
    ``rng.choice`` and then ``rng.poisson``; a superposition adds the counts
    of its two components.

    Kept apart from :func:`_model_mixing`, the analytic side of the count
    check, so that the check never compares the mixing convolution with
    itself.
    """
    if isinstance(model, Poisson):
        return rng.poisson(model.z * volume, size)
    if isinstance(model, MixedPoisson):
        mix = model.mixing
        atoms = rng.choice(mix.grid.size, size=size, p=mix.masses)
        return rng.poisson(mix.grid[atoms] * volume)
    if isinstance(model, Superposition):
        return (_model_counts(model.left, volume, rng, size)
                + _model_counts(model.right, volume, rng, size))
    raise ValidationError(f"cannot sample {type(model).__name__}")


def _draw_sorted(model, window, rng, size):
    """Counts, rows sorted within each sample, and which samples repeat a row.

    The rows of a superposition's components are i.i.d. uniform given the
    counts, so one coordinate draw serves every component.
    """
    counts = _model_counts(model, window.volume, rng, size)
    rows = window.sample_uniform(rng, int(counts.sum()))
    if not window.contains_points(rows).all():
        raise ValidationError("a drawn point lies outside the window")
    owner = np.repeat(np.arange(size), counts)
    # owner is the primary key and already ascending, so it is unchanged
    rows = rows[np.lexsort((*rows.T[::-1], owner))]
    same = (owner[1:] == owner[:-1]) & (rows[1:] == rows[:-1]).all(axis=1)
    repeated = np.zeros(size, dtype=bool)
    repeated[owner[1:][same]] = True
    return counts, rows, repeated


def sample_batch(model, window, rng, size):
    """``size`` independent draws of a Poisson, mixed-Poisson or superposed
    model on ``window``, as a :class:`PointBatch`.

    All counts are drawn first, then all coordinates in one
    ``window.sample_uniform`` call.  Every row is checked for window
    membership, and every sample for a repeated point after sorting; such a
    sample is redrawn whole (counts and points) and counted in
    ``overlap_events``.
    """
    counts, rows, repeated = _draw_sorted(model, window, rng, size)
    redrawn = 0
    while repeated.any():
        again = np.flatnonzero(repeated)
        redrawn += again.size
        new_counts, new_rows, new_repeated = _draw_sorted(model, window, rng,
                                                          again.size)
        owner = np.repeat(np.arange(size), counts)
        keep = ~repeated[owner]
        counts[again] = new_counts
        order = np.argsort(np.concatenate(
            (owner[keep], np.repeat(again, new_counts))), kind="stable")
        rows = np.concatenate((rows[keep], new_rows))[order]
        repeated = np.zeros(size, dtype=bool)
        repeated[again] = new_repeated
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return PointBatch(offsets, rows, redrawn)


# ---------------------------------------------------------------------------
# Gibbs birth--death chain
# ---------------------------------------------------------------------------

def strauss_spec(beta, g, R):
    """Strauss conditional intensity ``r(gamma, x) = beta * g^{s_R(x, gamma)}``.

    ``s_R`` counts the points of gamma within distance R of x.  For
    ``g <= 1`` the intensity is bounded by beta, which the descriptor
    records as ``r_max``.  ``g = 0`` is the hard-core model (``0^0 = 1``).
    The spec carries the batched form of the same intensity.
    """
    # written so that NaN fails every comparison and is rejected
    if not (0 < beta < math.inf and 0 <= g <= 1 and 0 < R < math.inf):
        raise ValidationError("need finite beta > 0, 0 <= g <= 1, finite R > 0")

    r2 = R * R
    # half-width of the scalar form's first-coordinate window: a counted
    # point has fl(d_0^2) <= fl(R^2), so |d_0| <= R (1 + 2^-52) barring
    # underflow, which the absolute term covers; rounding is monotone
    reach = R * (1 + 2 ** -40) + 1e-150

    def evaluator(gamma, x):
        # both forms sum the squared differences axis by axis, left to
        # right, and decide by `<= r2` alone, so they agree bit for bit
        pts, x0 = gamma.points, x[0]
        s = 0
        for k in range(bisect.bisect_left(pts, (x0 - reach,)), len(pts)):
            p = pts[k]
            if p[0] > x0 + reach:
                break
            d2 = 0.0
            for a, b in zip(p, x):
                d = a - b
                d2 += d * d
            if d2 <= r2:
                s += 1
        return beta * g ** s  # g**0 == 1.0, also for g = 0

    # beta * g**s for s = 0, 1, ..., grown on demand; Python's float power,
    # as in the scalar evaluator, so both forms agree bit for bit
    powers = np.array([beta])

    def batch(points, proposals):
        nonlocal powers
        if len(points) >= powers.size:  # s never exceeds len(points)
            powers = np.array([beta * g ** k
                               for k in range(len(points) + 1)])
        diff = proposals[:, None, :] - points
        diff *= diff
        near = sum(diff[..., k] for k in range(diff.shape[2])) <= r2
        return powers[np.add.reduce(near, axis=1)]

    return PapangelouSpec(evaluator, {"model": "strauss", "beta": beta,
                                      "g": g, "R": R, "r_max": beta},
                          batch=batch)


class _BirthDeathChain:
    """State of the birth--death chain and its moves.

    The state is the sorted list of point tuples: it finds duplicates and
    indexes deaths in sorted order.  Each move makes one scalar call of the
    spec on an unvalidated configuration of those tuples.
    """

    def __init__(self, spec, window, rng):
        self.spec = spec
        self.window = window
        self.rng = rng
        self.vol = window.volume
        self.r_max = spec.descriptor.get("r_max")
        self.points = []

    def intensity(self, points, x):
        """``r(gamma, x)`` for the sorted points of gamma, checked against
        the stated bound ``r_max``."""
        r = self.spec(Configuration._unchecked(self.window, tuple(points)), x)
        if self.r_max is not None and r > self.r_max * (1 + 1e-12):
            raise StabilityError(
                f"conditional intensity {r} exceeds the stated bound "
                f"{self.r_max}")
        return r

    def step(self):
        """One birth--death proposal, applied in place."""
        rng, pts, n = self.rng, self.points, len(self.points)
        if rng.random() < 0.5:  # birth
            x = self.window.sample_point(rng)
            i = bisect.bisect_left(pts, x)
            if i < n and pts[i] == x:
                return
            r = self.intensity(pts, x)
            if rng.random() < min(1.0, r * self.vol / (n + 1)):
                pts.insert(i, x)
        else:  # death
            if not n:
                return
            i = int(rng.integers(n))
            r = self.intensity(pts[:i] + pts[i + 1:], pts[i])
            if r <= 0.0 or rng.random() < min(1.0, n / (r * self.vol)):
                del pts[i]


def sample_gibbs_bd(spec, plan, rng=None):
    """Thinned stationary stream of the Gibbs law defined by ``spec``.

    Spatial birth--death Metropolis--Hastings: with probability 1/2 propose a
    uniform birth (acceptance ``min(1, r vol / (n+1))``), else a uniform
    death (acceptance ``min(1, n / (r vol))``).  Returns ``plan.replicas``
    states taken every ``plan.thinning`` moves after ``plan.burn_in`` moves.
    """
    if rng is None:
        rng = split_streams(plan.master_seed, 1)[0]
    chain = _BirthDeathChain(spec, plan.window, rng)
    for _ in range(plan.burn_in):
        chain.step()
    out = []
    for _ in range(plan.replicas):
        for _ in range(max(plan.thinning, 1)):
            chain.step()
        out.append(Configuration(plan.window, points=tuple(chain.points)))
    return out


def detailed_balance_residual(spec, plan, n_moves=200):
    """Machine-precision self-test of the birth--death acceptance ratios.

    For states along a short chain, the product of the unclipped birth ratio
    at ``(gamma, x)`` and the unclipped death ratio at ``(gamma u x, x)``
    must equal one identically.  Returns the maximum |product - 1|.
    """
    rng = split_streams(plan.master_seed, 1)[0]
    chain = _BirthDeathChain(spec, plan.window, rng)
    vol = chain.vol
    worst = 0.0
    for _ in range(n_moves):
        r = chain.intensity(chain.points, plan.window.sample_point(rng))
        if r > 0:
            birth_ratio = r * vol / (len(chain.points) + 1)
            death_ratio = (len(chain.points) + 1) / (r * vol)
            worst = max(worst, abs(birth_ratio * death_ratio - 1.0))
        chain.step()
    return worst


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def constant_h(value=1.0):
    """Test function ``h(gamma, x) = value``, with its batched form.

    A test function ``h`` may carry ``h.batch(points, proposals)``: for the
    ``(n, d)`` points of gamma and ``(m, d)`` proposals it returns the ``m``
    values ``h(gamma u {u_j}, u_j)`` that the verifiers' right-hand sides
    need, without building a configuration per proposal.
    """
    def h(gamma, x):
        return value

    h.batch = lambda points, proposals: np.full(len(proposals), value,
                                                dtype=float)
    return h


def _paired_report(identity, lhs, rhs, se_d=None, n_effective=None):
    """Report on paired samples; ``se_d`` defaults to the i.i.d. SE."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = lhs.size
    diff = lhs - rhs
    if se_d is None:
        se_d = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = float(diff.mean() / se_d) if se_d > 0 else 0.0
    return IdentityReport(
        identity=identity,
        lhs_mean=float(lhs.mean()), rhs_mean=float(rhs.mean()),
        lhs_se=float(lhs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        rhs_se=float(rhs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        z_score=z, passed=bool(abs(z) <= Z_THRESHOLD),
        n_effective=n_effective if n_effective is not None else n)


def _point_array(gamma):
    """The points of a window configuration as an ``(n, d)`` array."""
    return np.array(gamma.points, dtype=float).reshape(
        len(gamma.points), gamma.ground.dimension)


def _fresh(array, proposals):
    """The proposal rows that are not already points of the configuration."""
    if len(array):
        taken = (proposals[:, None, :] == array[None, :, :]).all(axis=2)
        taken = taken.any(axis=1)
        if taken.any():
            return proposals[~taken]
    return proposals


def _insertion_values(h, gamma, array, proposals):
    """``h(gamma u {u}, u)`` for each proposal row u.

    The rows were drawn in the window and are not points of gamma (see
    :func:`_fresh`), so the scalar path inserts them without re-checking.
    """
    batch = getattr(h, "batch", None)
    if batch is not None:
        return np.asarray(batch(array, proposals), dtype=float)
    pts, values = gamma.points, []
    for u in map(tuple, proposals.tolist()):
        i = bisect.bisect_left(pts, u)
        values.append(h(Configuration._unchecked(
            gamma.ground, pts[:i] + (u,) + pts[i:]), u))
    return np.array(values, dtype=float)


def _intensities(spec, gamma, array, proposals):
    """``r(gamma, u)`` for each proposal row u."""
    if spec.batch is not None:
        return spec.batched(array, proposals)
    return np.array([spec(gamma, u) for u in map(tuple, proposals.tolist())],
                    dtype=float)


def _sum_in_order(values):
    """Left-to-right sum, so batched and scalar paths round alike."""
    acc = 0.0
    for v in values.tolist():
        acc += v
    return acc


def verify_mecke(z, window, h, plan):
    """Verifier of the defining integral identity of the Poisson process.

    lhs averages ``sum_{x in gamma} h(gamma, x)`` over independent Poisson
    samples; rhs averages ``z vol mean_S h(gamma u x, x)`` over uniform
    insertion points of the same samples, so the two sides are paired.
    ``h`` may carry a batched form (see :func:`constant_h`).
    """
    rng = split_streams(plan.master_seed, 1)[0]
    S = plan.proposal_points
    vol = window.volume
    lhs = np.empty(plan.replicas)
    rhs = np.empty(plan.replicas)
    for i in range(plan.replicas):
        gamma = sample_poisson(window, z, rng)
        lhs[i] = math.fsum(h(gamma, x) for x in gamma.points)
        array = _point_array(gamma)
        proposals = _fresh(array, window.sample_uniform(rng, S))
        acc = _sum_in_order(_insertion_values(h, gamma, array, proposals))
        rhs[i] = z * vol * acc / S
    return _paired_report("mecke", lhs, rhs)


def _batch_se(diff, n_batches=GNZ_BATCHES):
    """Batch-means standard error and effective sample size for a chain."""
    n = diff.size
    b = n // n_batches
    if b < 1:
        raise ValidationError("chain too short for batch means")
    means = diff[:b * n_batches].reshape(n_batches, b).mean(axis=1)
    se = float(means.std(ddof=1) / math.sqrt(n_batches))
    var = float(diff.var(ddof=1))
    n_eff = int(var / se ** 2) if se > 0 else n
    return se, min(n_eff, n)


def verify_gnz(spec, h, plan):
    """Verifier of the conditional-intensity integral identity.

    lhs averages ``sum_{x in gamma} h(gamma, x)`` along the stationary MCMC
    stream; rhs averages the uniform-MC estimate of
    ``vol mean_S h(gamma u x, x) r(gamma, x)``.  Standard errors use batch
    means to absorb chain autocorrelation.  The batched forms of ``spec``
    and ``h`` are used where present.
    """
    streams = split_streams(plan.master_seed, 2)
    chain = sample_gibbs_bd(spec, plan, streams[0])
    rng = streams[1]
    S = plan.proposal_points
    vol = plan.window.volume
    lhs = np.empty(len(chain))
    rhs = np.empty(len(chain))
    for i, gamma in enumerate(chain):
        lhs[i] = math.fsum(h(gamma, x) for x in gamma.points)
        array = _point_array(gamma)
        proposals = _fresh(array, plan.window.sample_uniform(rng, S))
        terms = (_insertion_values(h, gamma, array, proposals)
                 * _intensities(spec, gamma, array, proposals))
        rhs[i] = vol * _sum_in_order(terms) / S
    se, n_eff = _batch_se(lhs - rhs)
    return _paired_report("gnz", lhs, rhs, se, n_eff)


# ---------------------------------------------------------------------------
# empirical correlation and count statistics
# ---------------------------------------------------------------------------

def _boxes_disjoint(b1, b2):
    return any(hi1 <= lo2 or hi2 <= lo1
               for (lo1, hi1), (lo2, hi2) in zip(b1.box, b2.box))


def estimate_correlation(samples, cells, order):
    """Empirical order-n correlation averaged over disjoint cells.

    ``samples`` is a :class:`PointBatch` or a sequence of window
    configurations, which is converted to one.  Estimates the cell-product
    moment by ``prod_i count_in(gamma, B_i)`` per sample (closed cells) and
    divides by the product of cell volumes.  Returns
    ``(estimate, standard_error)``.
    """
    if order != len(cells):
        raise ValidationError("order must equal the number of cells")
    for i, c1 in enumerate(cells):
        for c2 in cells[i + 1:]:
            if not _boxes_disjoint(c1, c2):
                raise ValidationError("cells must be pairwise disjoint")
    if not isinstance(samples, PointBatch):
        samples = PointBatch.from_configurations(samples)
    n = len(samples)
    owner = np.repeat(np.arange(n), samples.counts)
    prod = np.ones(n)
    for c in cells:
        prod *= np.bincount(owner[c.contains_points(samples.coords)],
                            minlength=n)
    vals = prod / np.prod([c.volume for c in cells])
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def density_estimator(gamma):
    """Finite-window empirical intensity ``|gamma| / vol``."""
    return len(gamma) / gamma.ground.volume


def _model_mixing(model):
    if isinstance(model, Poisson):
        return point_mass_mixing(model.z)
    if isinstance(model, MixedPoisson):
        return model.mixing
    if isinstance(model, Superposition):
        return mixing_convolution(_model_mixing(model.left),
                                  _model_mixing(model.right))
    raise ValidationError(
        "count checks support Poisson, MixedPoisson and their superpositions")


def analytic_count_pmf(mixing, volume, n_max):
    """Quadrature values of ``P(N = n)`` for a mixed Poisson count."""
    out = np.empty(n_max + 1)
    zv = mixing.grid * volume
    for n in range(n_max + 1):
        out[n] = float(np.dot(mixing.masses,
                              np.exp(-zv) * zv ** n / math.factorial(n)))
    return out


def count_distribution_check(model, window, n_max, plan):
    """Empirical vs analytic count law of a (mixed/superposed) Poisson model.

    Returns a dict with per-n z-scores, the truncated total-variation
    distance, an overall pass flag (every |z| within threshold) and the
    number of samples redrawn for a repeated point.
    """
    rng = split_streams(plan.master_seed, 1)[0]
    batch = sample_batch(model, window, rng, plan.replicas)
    emp = np.bincount(np.minimum(batch.counts, n_max + 1),
                      minlength=n_max + 2) / plan.replicas
    analytic = analytic_count_pmf(_model_mixing(model), window.volume, n_max)
    records = []
    all_pass = True
    for n in range(n_max + 1):
        p = analytic[n]
        se = math.sqrt(max(p * (1 - p), 1e-300) / plan.replicas)
        z = (emp[n] - p) / se
        ok = abs(z) <= Z_THRESHOLD
        all_pass = all_pass and ok
        records.append({"n": n, "empirical": float(emp[n]),
                        "analytic": float(p), "z_score": float(z),
                        "pass": bool(ok)})
    tail_analytic = max(0.0, 1.0 - float(analytic.sum()))
    tv = 0.5 * (float(np.abs(emp[:n_max + 1] - analytic).sum())
                + abs(float(emp[n_max + 1]) - tail_analytic))
    return {"per_n": records, "tv": tv, "pass": bool(all_pass),
            "overlap_events": batch.overlap_events,
            "replicas": plan.replicas}
