"""Continuum Monte Carlo layer: samplers and statistical identity verifiers.

Poisson and mixed-Poisson windows are sampled directly; Gibbs laws by a
spatial birth--death Metropolis--Hastings chain.  The Mecke and GNZ integral
identities are verified by paired estimators with a fixed |z| <= 4 decision
rule; MCMC standard errors use batch means.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import BoxWindow, PointConfiguration, _is_integer, split_streams
from .errors import CapacityError, ValidationError
from .processes import (MixedPoisson, PapangelouSpec, Poisson, Superposition,
                        _batch_values, mixing_convolution, point_mass_mixing)

Z_THRESHOLD = 4.0
GNZ_BATCHES = 32
# a count check holds one report record, and makes one pass over the mixing
# grid, per count n <= n_max: at 10 000 an identity:counts run takes about
# half a second and writes 1.5 MB, for windows whose mean count is thousands
COUNT_MAX_N = 10_000


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
        for field in fields(self)[1:]:  # every field after the window
            if not _is_integer(value := getattr(self, field.name)):
                raise ValidationError(f"plan {field.name} must be an "
                                      f"integer, got {value!r}")
        if (self.replicas < 1 or self.burn_in < 0 or self.thinning < 1
                or self.master_seed < 0):
            raise ValidationError("need replicas >= 1, thinning >= 1, "
                                  "burn_in >= 0 and master_seed >= 0")
        if self.proposal_points < 1:
            raise ValidationError("need at least one proposal point")


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

@dataclass(frozen=True)
class PointBatch:
    """A ragged batch of window samples.

    Sample ``i`` is ``coords[offsets[i]:offsets[i + 1]]``, an ``(n_i, d)``
    block of rows in lexicographic order with no repeated row, as the points
    of a :class:`~confpp.core.PointConfiguration` are.  ``overlap_events``
    counts the samples that were redrawn because a row repeated.
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
    same = owner[1:] == owner[:-1]
    for a in range(rows.shape[1]):  # per axis: d is short, the rows long
        same &= rows[1:, a] == rows[:-1, a]
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
    ``g <= 1`` the intensity is bounded by beta, which the spec states as
    ``r_max``.  ``g = 0`` is the hard-core model (``0^0 = 1``).
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
        n = points.shape[-2]
        if n >= powers.size:  # s never exceeds n
            powers = np.array([beta * g ** k for k in range(n + 1)])
        # (..., n, m) squared distances, summed axis by axis from axis 0
        # (0.0 + x == x for a square).  With the point axis ahead of the
        # proposals, the passes and the count run inner loops of m, not one
        # short loop of n per proposal
        d2 = points[..., :, np.newaxis, 0] - proposals[..., np.newaxis, :, 0]
        d2 *= d2
        for k in range(1, points.shape[-1]):
            diff = (points[..., :, np.newaxis, k]
                    - proposals[..., np.newaxis, :, k])
            diff *= diff
            d2 += diff
        return powers[np.add.reduce(d2 <= r2, axis=-2)]

    return PapangelouSpec(evaluator, batch=batch, r_max=beta)


# the slots' own setters for the trusted builds of _configuration and of
# _insertion_sides' scalar loop; the class stays frozen
_set_ground = PointConfiguration.ground.__set__
_set_points = PointConfiguration.points.__set__


def _configuration(window, points):
    """``PointConfiguration(window, points)`` without the dataclass
    ``__init__``, for points the caller keeps sorted, inside and distinct."""
    gamma = object.__new__(PointConfiguration)
    _set_ground(gamma, window)
    _set_points(gamma, points)
    return gamma


# doubles per refill; rng.random(k) blocks of any sizes concatenate to the
# doubles of successive rng.random() calls, so the size changes no result
_UNIFORM_BLOCK = 4096


class _Uniforms:
    """``rng``'s successive doubles, drawn ``_UNIFORM_BLOCK`` at a time."""

    def __init__(self, rng):
        self.rng, self.left = rng, []  # the unused doubles, next one last

    def random(self):
        if not self.left:
            self.left = self.rng.random(_UNIFORM_BLOCK)[::-1].tolist()
        return self.left.pop()


def sample_gibbs_bd(spec, plan):
    """Thinned stationary stream of the Gibbs law defined by ``spec``.

    Spatial birth--death Metropolis--Hastings on the sorted list of point
    tuples: with probability 1/2 propose a uniform birth (acceptance
    ``min(1, r vol / (n+1))``), else the death of point ``int(u n) <= n - 1``
    (acceptance ``min(1, n / (r vol))``, 1 where r = 0).  Each r is one
    checked scalar call of ``spec``; each uniform u the next double of
    ``split_streams(plan.master_seed, 1)[0]``, drawn in blocks.  Returns the
    ``plan.replicas`` states taken every ``plan.thinning`` moves after
    ``plan.burn_in`` moves as one :class:`PointBatch` that views the
    chain's ``array.array``s, without re-validation: births are window draws
    and the step keeps the points sorted and free of repeats.
    """
    window, vol = plan.window, plan.window.volume
    u = _Uniforms(split_streams(plan.master_seed, 1)[0])
    pts = []

    def step():
        n = len(pts)
        if u.random() < 0.5:  # birth
            x = window.sample_point(u)
            i = bisect.bisect_left(pts, x)
            if i < n and pts[i] == x:
                return
            r = spec(_configuration(window, tuple(pts)), x)
            if u.random() < min(1.0, r * vol / (n + 1)):
                pts.insert(i, x)
        elif n:  # death
            i = int(u.random() * n)
            r = spec(_configuration(window, tuple(pts[:i] + pts[i + 1:])),
                     pts[i])
            ratio = n / (r * vol) if r > 0.0 else math.inf
            if ratio == math.inf or u.random() < min(1.0, ratio):
                del pts[i]

    for _ in range(plan.burn_in):
        step()
    coords, ends = array.array("d"), array.array("q", [0])
    for _ in range(plan.replicas):
        for _ in range(plan.thinning):
            step()
        coords.extend(itertools.chain.from_iterable(pts))
        ends.append(len(coords))
    d = window.dimension
    return PointBatch(np.frombuffer(ends, dtype=np.int64) // d,
                      np.frombuffer(coords).reshape(-1, d))


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def constant_h(value=1.0):
    """Test function ``h(gamma, x) = value``, with its batched form.

    A test function ``h`` may carry ``h.batch(points, proposals)``, a
    generalized ufunc of signature ``(n,d),(m,d)->(m)`` as for
    :class:`~confpp.processes.PapangelouSpec`: for the points of gamma and
    ``m`` proposals it returns the values ``h(gamma u {u_j}, u_j)`` that the
    verifiers' right-hand sides need, without building a configuration per
    proposal.
    """
    def h(gamma, x):
        return value

    h.batch = lambda points, proposals: np.full(proposals.shape[:-1], value,
                                                dtype=float)
    return h


def _paired_report(identity, lhs, rhs, se_d=None, n_effective=None):
    """Report on paired samples; ``se_d`` defaults to the i.i.d. SE.

    With ``se_d = 0`` the gap is known exactly: the report passes only when
    the mean gap is 0.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = lhs.size
    diff = lhs - rhs
    if se_d is None:
        se_d = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    gap = float(diff.mean())
    # with se_d = 0: +-inf for a nonzero gap and NaN for NaN, both failing
    z = gap / se_d if se_d > 0 else 0.0 if gap == 0 else gap * math.inf
    return IdentityReport(
        identity=identity,
        lhs_mean=float(lhs.mean()), rhs_mean=float(rhs.mean()),
        lhs_se=float(lhs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        rhs_se=float(rhs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        z_score=z, passed=bool(abs(z) <= Z_THRESHOLD),
        n_effective=n_effective if n_effective is not None else n)


# states per right-hand-side block: bounds the stacked (states, S, n, d)
# arrays of the batched forms, and changes no result
_BLOCK = 256


def _proposal_blocks(states, window, rng, S):
    """``(batch, proposals)`` for each run of at most ``_BLOCK`` states of
    the :class:`PointBatch` ``states``: the run and its ``(k, S, d)``
    uniform proposals, one ``window.sample_uniform(rng, k * S)`` draw."""
    for start in range(0, len(states), _BLOCK):
        k = min(_BLOCK, len(states) - start)
        at = states.offsets[start:start + k + 1]
        yield (PointBatch(at - at[0], states.coords[at[0]:at[-1]]),
               window.sample_uniform(rng, k * S).reshape(k, S, -1))


def _insertion_sides(blocks, window, h, S, scale, spec=None):
    """Paired sides of an insertion identity, one pair per state.

    lhs is ``sum_{x in gamma} h(gamma, x)``; rhs is ``scale`` times the mean
    over ``S`` uniform proposals u of ``h(gamma u {u}, u)``, times
    ``r(gamma, u)`` when ``spec`` is given.  ``blocks`` yields ``(batch,
    proposals)`` from :func:`_proposal_blocks`: a :class:`PointBatch` of
    states on ``window`` and their ``(len(batch), S, d)`` proposals.

    A proposal that is already a point of gamma adds a 0 term.  Such
    repeats are found per point count on ``(states, n, S)`` slabs, one
    coordinate at a time, and OR-ed over the leading point axis: numpy
    runs a reduction over a trailing axis as one short loop per output,
    over a leading one as passes of whole rows of ``S``.  A ``spec``
    with a batched form, and ``h`` if it and ``spec`` (when given) both
    carry one, are called once per point count in a block, on the stack of
    those states' points and proposals (every proposal, also a repeat), and
    a batched ``h`` gives lhs by one more call per count, on each point x
    against gamma \\ x.  The others are called in scalar form on a
    :class:`~confpp.core.PointConfiguration` built from the state's rows,
    once per point for lhs and once per other proposal for rhs.  lhs is
    summed by ``math.fsum`` and each row of terms left to right, so both
    paths give the same bits.
    """
    h_batch = getattr(h, "batch", None)
    r_batched = spec is not None and spec.batch is not None
    batched = h_batch is not None and (spec is None or r_batched)
    bisect_left, new = bisect.bisect_left, object.__new__
    lhs, rhs = [], []
    for batch, proposals in blocks:
        k, counts, offsets = len(batch), batch.counts, batch.offsets
        left = np.zeros(k)
        taken = np.zeros((k, S), dtype=bool)
        h_vals = np.zeros((k, S))
        r_vals = None if spec is None else np.zeros((k, S))
        for n in np.flatnonzero(np.bincount(counts)).tolist():
            rows = np.flatnonzero(counts == n)
            points = batch.coords[offsets[rows, np.newaxis] + np.arange(n)]
            props = proposals[rows]
            if n:
                u, x = props[:, np.newaxis], points[:, :, np.newaxis]
                same = u[..., 0] == x[..., 0]
                for a in range(1, props.shape[-1]):
                    same &= u[..., a] == x[..., a]
                taken[rows] = same.any(axis=1)
            if r_batched:
                r_vals[rows] = _batch_values(spec.batched, points, props)
            if not batched:
                continue
            h_vals[rows] = _batch_values(h_batch, points, props)
            if n:
                # row i of `others` indexes every point but point i
                others = np.arange(n - 1) + (np.arange(n - 1)
                                             >= np.arange(n)[:, np.newaxis])
                at_x = _batch_values(h_batch, points[:, others],
                                     points[:, :, np.newaxis])
                left[rows] = list(map(math.fsum, at_x.reshape(-1, n).tolist()))
        if not batched:
            coords, bounds = batch.coords.tolist(), offsets.tolist()
            for i, repeat in enumerate(taken.any(axis=1).tolist()):
                pts = tuple(map(tuple, coords[bounds[i]:bounds[i + 1]]))
                gamma = _configuration(window, pts)
                fresh = ~taken[i] if repeat else slice(None)
                us = list(map(tuple, proposals[i, fresh].tolist()))
                left[i] = math.fsum(h(gamma, x) for x in pts)
                vals = []
                for u in us:  # _configuration's body, without its call
                    at = bisect_left(pts, u)
                    inserted = new(PointConfiguration)
                    _set_ground(inserted, window)
                    _set_points(inserted, pts[:at] + (u,) + pts[at:])
                    vals.append(h(inserted, u))
                h_vals[i, fresh] = vals
                if spec is not None and not r_batched:
                    r_vals[i, fresh] = [spec(gamma, u) for u in us]
        h_vals[taken] = 0.0
        terms = h_vals if spec is None else np.multiply(h_vals, r_vals,
                                                         out=h_vals)
        # + 0.0 turns a -0.0 sum into the 0.0 of a sum started at 0.0
        sums = np.add.accumulate(terms, axis=1, out=terms)[:, -1] + 0.0
        lhs.append(left)
        rhs.append(scale * sums / S)
    return np.concatenate(lhs), np.concatenate(rhs)


def _plan_window(window, plan):
    """Reject a verifier's ``window`` that is not the ``plan``'s own."""
    if window != plan.window:
        raise ValidationError(f"{window} is not the plan's window")


def verify_mecke(z, window, h, plan):
    """Verifier of the defining integral identity of the Poisson process.

    lhs averages ``sum_{x in gamma} h(gamma, x)`` over independent Poisson
    samples; rhs averages ``z vol mean_S h(gamma u x, x)`` over uniform
    insertion points of the same samples, so the two sides are paired.
    The samples are one :func:`sample_batch` draw on one stream, their
    proposals come from another (:func:`_proposal_blocks`).  ``h`` may
    carry a batched form (see :func:`constant_h`).  Needs at least two
    replicas for a standard error.
    """
    _plan_window(window, plan)
    if plan.replicas < 2:
        raise ValidationError("the Mecke verifier needs replicas >= 2")
    streams = split_streams(plan.master_seed, 2)
    states = sample_batch(Poisson(z), window, streams[0], plan.replicas)
    S = plan.proposal_points
    blocks = _proposal_blocks(states, window, streams[1], S)
    lhs, rhs = _insertion_sides(blocks, window, h, S, z * window.volume)
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
    means to absorb chain autocorrelation.  The proposals come from a
    stream of their own (see :func:`_proposal_blocks`).  The batched form
    of ``spec`` is used when present, that of ``h`` when both are.
    """
    states = sample_gibbs_bd(spec, plan)  # on stream 0 of the master seed
    window, S = plan.window, plan.proposal_points
    rng = split_streams(plan.master_seed, 2)[1]
    blocks = _proposal_blocks(states, window, rng, S)
    lhs, rhs = _insertion_sides(blocks, window, h, S, window.volume, spec)
    se, n_eff = _batch_se(lhs - rhs)
    return _paired_report("gnz", lhs, rhs, se, n_eff)


# ---------------------------------------------------------------------------
# empirical correlation and count statistics
# ---------------------------------------------------------------------------

def estimate_correlation(samples, cells):
    """Empirical correlation of order ``len(cells)`` over disjoint cells.

    ``samples`` is a nonempty :class:`PointBatch`.  Estimates the
    cell-product moment by the product over cells ``B_i`` of each sample's
    count of points in ``B_i`` (closed cells) and divides by the product of
    cell volumes.  Returns ``(estimate, standard_error)``.
    """
    if not isinstance(samples, PointBatch) or not len(samples):
        raise ValidationError("samples must be a nonempty PointBatch")
    for c1, c2 in itertools.combinations(cells, 2):
        if not any(hi1 <= lo2 or hi2 <= lo1
                   for (lo1, hi1), (lo2, hi2) in zip(c1.box, c2.box)):
            raise ValidationError("cells must be pairwise disjoint")
    n = len(samples)
    owner = np.repeat(np.arange(n), samples.counts)
    prod = np.ones(n)
    for c in cells:
        prod *= np.bincount(owner[c.contains_points(samples.coords)],
                            minlength=n)
    vals = prod / np.prod([c.volume for c in cells])
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


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
    """Quadrature values of ``P(N = n)`` for a mixed Poisson count, each
    term ``zv^n e^{-zv} / n!`` taken through its logarithm lest it overflow."""
    out = np.empty(n_max + 1)
    zv = mixing.grid * volume
    log_zv = np.log(zv)
    for n in range(n_max + 1):
        out[n] = float(np.dot(mixing.masses,
                              np.exp(n * log_zv - zv - math.lgamma(n + 1))))
    return out


def count_distribution_check(model, window, n_max, plan):
    """Empirical vs analytic count law of a (mixed/superposed) Poisson model.

    Returns a dict with per-n z-scores, the truncated total-variation
    distance, an overall pass flag (every |z| within threshold) and the
    number of samples redrawn for a repeated point.
    """
    _plan_window(window, plan)
    _check_n_max(n_max)
    rng = split_streams(plan.master_seed, 1)[0]
    return _count_report(model, window, n_max,
                         sample_batch(model, window, rng, plan.replicas))


def _check_n_max(n_max):
    """Reject a count check's ``n_max`` outside ``[0, COUNT_MAX_N]``."""
    if not _is_integer(n_max) or n_max < 0:
        raise ValidationError(f"n_max must be an integer >= 0, got {n_max!r}")
    if n_max > COUNT_MAX_N:
        raise CapacityError(f"count checks limited to n_max = {COUNT_MAX_N}")


def _count_report(model, window, n_max, batch):
    """:func:`count_distribution_check` on the drawn :class:`PointBatch`
    ``batch`` of ``model`` on ``window``, for a checked ``n_max``."""
    replicas = len(batch)
    emp = np.bincount(np.minimum(batch.counts, n_max + 1),
                      minlength=n_max + 2) / replicas
    analytic = analytic_count_pmf(_model_mixing(model), window.volume, n_max)
    records = []
    all_pass = True
    for n in range(n_max + 1):
        p = analytic[n]
        se = math.sqrt(max(p * (1 - p), 1e-300) / replicas)
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
            "overlap_events": batch.overlap_events, "replicas": replicas}
