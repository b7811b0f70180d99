"""Ground-space models, configurations, set functions and lattice integration.

Two kinds of ground model coexist:

* a *discrete* ground: a finite list of weighted sites, on which every
  function of finite configurations is a dense table indexed by subset
  bitmask (bit ``i`` = site ``i``, little-endian), as is a configuration;
* a *continuum* window: an axis-aligned box carrying Lebesgue measure, on
  which configurations are finite sorted point sets and integrals are
  estimated by Monte Carlo.

The reference measure weights a subset ``eta`` by ``z**|eta| * prod m(x)``
(discrete) with the empty set carrying weight one.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property, partialmethod

import numpy as np

from .errors import (CapacityError, EvaluationError, GroundMismatchError,
                     ValidationError)

MAX_SITES = 24


# ---------------------------------------------------------------------------
# ground models
# ---------------------------------------------------------------------------

def _reals(items):
    """``items`` as a tuple of floats; ``TypeError`` unless it is an
    iterable of real numbers.  A bool, a str or None is not one, although
    ``float()`` takes the first two; numpy numbers are."""
    items = tuple(items)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
               for x in items):
        raise TypeError("not a list of numbers")
    return tuple(map(float, items))


@dataclass(frozen=True)
class DiscreteGround:
    """Finite weighted site set; the exact-layer ground model.

    Parameters
    ----------
    weights : tuple of float
        Strictly positive atom mass per site.  At most ``MAX_SITES`` sites.
    """

    weights: tuple

    def __post_init__(self):
        try:
            w = _reals(self.weights)
        except TypeError as exc:
            raise ValidationError("a discrete ground needs 'weights', a "
                                  "list of numbers") from exc
        if len(w) > MAX_SITES:
            raise CapacityError(
                f"{len(w)} sites exceed the cap of {MAX_SITES}")
        if any(not math.isfinite(x) or x <= 0.0 for x in w):
            raise ValidationError("site weights must be finite and positive")
        object.__setattr__(self, "weights", w)

    @property
    def n_sites(self):
        return len(self.weights)

    @property
    def n_subsets(self):
        return 1 << len(self.weights)

    @property
    def total_mass(self):
        return float(sum(self.weights))

    @cached_property
    def subset_size(self):
        """Popcount of every bitmask, shape ``(2**n,)`` of int64."""
        size = np.bitwise_count(np.arange(self.n_subsets)).astype(np.int64)
        size.flags.writeable = False
        return size

    @cached_property
    def subset_mass(self):
        """Product of site weights over every bitmask, shape ``(2**n,)``."""
        from .transforms import exp_vector
        return exp_vector(self, self.weights).values

    def lp_weights(self, z):
        """Reference weights ``z**|eta| * prod m(x)`` over the lattice."""
        if not 0 < z < math.inf:
            raise ValidationError("intensity z must be positive and finite")
        return (float(z) ** self.subset_size) * self.subset_mass

    def site_mass(self, i):
        return self.weights[i]


@dataclass(frozen=True)
class BoxWindow:
    """Axis-aligned box with Lebesgue measure; the continuum ground model.

    Parameters
    ----------
    box : tuple of (lo, hi) pairs
        Per-axis interval bounds, ``lo < hi`` on every axis.
    """

    box: tuple

    def __post_init__(self):
        try:
            bounds = tuple((lo, hi) for lo, hi in map(_reals, self.box))
        except (TypeError, ValueError) as exc:
            raise ValidationError("a continuum ground needs 'box', a list "
                                  "of [lo, hi] pairs of numbers") from exc
        if not bounds:
            raise ValidationError("box must have at least one axis")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError("box intervals must be nonempty and finite")
        object.__setattr__(self, "box", bounds)

    @property
    def dimension(self):
        return len(self.box)

    @property
    def volume(self):
        v = 1.0
        for lo, hi in self.box:
            v *= hi - lo
        return v

    def contains(self, point):
        """Whether ``point`` lies in the closed box, as a Python bool.

        A point of the wrong length, or with a NaN coordinate, is outside.
        """
        box = self.box
        if len(point) != len(box):
            return False
        if len(box) == 1:
            lo, hi = box[0]
            # not the comparison itself: on an ndarray row it is a numpy bool
            return True if lo <= point[0] <= hi else False
        for x, (lo, hi) in zip(point, box):
            if not lo <= x <= hi:
                return False
        return True

    def contains_points(self, points):
        """Closed-box membership of each row of an ``(n, d)`` array.

        The vectorised form of :meth:`contains`; returns ``n`` booleans.
        """
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValidationError(
                f"need an (n, {self.dimension}) array of points")
        inside = np.ones(len(points), dtype=bool)
        for a, (lo, hi) in enumerate(self.box):  # per axis: d is short
            column = points[:, a]
            inside &= (lo <= column) & (column <= hi)
        return inside

    @cached_property
    def _bounds(self):
        """Lower corner and side lengths, read-only ``(d,)`` arrays."""
        lo = np.array([b[0] for b in self.box])
        span = np.array([b[1] for b in self.box]) - lo
        for a in (lo, span):
            a.flags.writeable = False
        return lo, span

    def sample_uniform(self, rng, n):
        """Draw ``n`` i.i.d. uniform points; shape ``(n, d)``.

        ``lo + (hi - lo) * rng.random(...)`` is the arithmetic, and the
        stream use, of ``rng.uniform(lo, hi, ...)``, so the draws are the
        same bit for bit, without that call's broadcasting set-up.
        """
        lo, span = self._bounds
        u = rng.random((n, len(lo)))
        u *= span
        u += lo
        return u

    @cached_property
    def _lo_span(self):
        """``(lo, hi - lo)`` per axis, as Python floats."""
        return tuple((lo, hi - lo) for lo, hi in self.box)

    def sample_point(self, rng):
        """One uniform point as a tuple of floats.

        The same doubles, in the same order, and the same ``lo + span * u``
        arithmetic as ``sample_uniform(rng, 1)[0]``, without building an
        array.
        """
        return tuple([lo + span * rng.random() for lo, span in self._lo_span])


def make_ground(spec):
    """Build a validated ground model from a JSON-style description.

    ``{"kind": "discrete", "weights": [...]}`` or
    ``{"kind": "continuum", "box": [[lo, hi], ...]}``; a missing or
    malformed field is a ``ValidationError`` that names it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("ground spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "discrete":
        return DiscreteGround(spec.get("weights"))
    if kind == "continuum":
        return BoxWindow(spec.get("box"))
    raise ValidationError(f"unknown ground kind {kind!r}")


def _same_ground(first, *others):
    """The ground of ``first``, which each of ``others`` must share: every
    operand (table, configuration, law or operator) has a ``ground``, and a
    mismatch is a :class:`GroundMismatchError`."""
    ground = first.ground
    if any(other.ground != ground for other in others):
        raise GroundMismatchError("operands live on different grounds")
    return ground


def _discrete(ground, user):
    """``ground``, if it is the :class:`DiscreteGround` that ``user`` needs."""
    if not isinstance(ground, DiscreteGround):
        raise ValidationError(f"not a discrete ground for {user}: {ground!r}")
    return ground


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """A finite subset of a discrete ground, as a bitmask."""

    ground: DiscreteGround
    mask: int = 0

    def __post_init__(self):
        _discrete(self.ground, "Configuration")
        if (isinstance(self.mask, bool)
                or not isinstance(self.mask, numbers.Integral)):
            raise ValidationError(f"bitmask {self.mask!r} is not an integer")
        object.__setattr__(self, "mask", int(self.mask))
        if not 0 <= self.mask < self.ground.n_subsets:
            raise ValidationError(f"bitmask {self.mask} out of range for "
                                  f"{self.ground.n_sites} sites")

    def __len__(self):
        return int(self.mask).bit_count()

    @property
    def sites(self):
        """Site indices in ascending order."""
        return tuple(i for i in range(self.ground.n_sites)
                     if self.mask >> i & 1)


@dataclass(frozen=True, slots=True)
class PointConfiguration:
    """A finite point set of a continuum window: ``points`` is a strictly
    sorted tuple of float tuples inside ``ground``.  The constructor trusts
    its caller; :meth:`checked` is the validating build.
    """

    ground: BoxWindow
    points: tuple = ()

    @classmethod
    def checked(cls, window, points):
        """The configuration of ``points`` on ``window``, each point inside
        the window and the points strictly sorted, so a repeated point is
        rejected, never merged."""
        if not isinstance(window, BoxWindow):
            raise ValidationError("point configurations need a continuum "
                                  "window; a discrete ground takes a bitmask")
        pts = []
        for p in points:
            try:
                pts.append(_reals(p))
            except TypeError as exc:
                raise ValidationError(
                    f"point {p!r} is not a list of numbers") from exc
            if not window.contains(pts[-1]):
                raise ValidationError(f"point {pts[-1]} outside the window")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValidationError(f"duplicate point {a}")
            if a > b:
                raise ValidationError("continuum points must be sorted")
        return cls(window, tuple(pts))

    def __len__(self):
        return len(self.points)


# ---------------------------------------------------------------------------
# set functions on the subset lattice
# ---------------------------------------------------------------------------

class _Table:
    """A frozen dataclass of a discrete ``ground`` and the float arrays
    named in ``_arrays``, of shape ``_shape()``.  The constructor holds
    copies of the caller's arrays, :meth:`_take` the newly computed arrays
    it is given.  An array field that defaults to None holds zeros if None."""

    _arrays = ("values",)

    def __post_init__(self):
        self._hold(np.array)

    @classmethod
    def _take(cls, *args):
        """The table of ``args``, every field in order, without copies."""
        table = cls.__new__(cls)
        for f, value in zip(fields(cls), args, strict=True):
            object.__setattr__(table, f.name, value)
        table._hold(np.asarray)
        return table

    def _hold(self, as_array):
        """Check, freeze and store each array, read by ``as_array``."""
        _discrete(self.ground, name := type(self).__name__)
        shape = self._shape()
        for field in self._arrays:
            value = getattr(self, field)
            optional = self.__dataclass_fields__[field].default is None
            held = (np.zeros(shape) if optional and value is None
                    else as_array(value, dtype=float))
            if held.shape != shape:
                raise ValidationError(f"{name}.{field} must have shape "
                                      f"{shape}, not {held.shape}")
            # a NaN or infinity shows in min or max, with no table-sized mask
            if held.size and not np.isfinite([held.min(), held.max()]).all():
                raise ValidationError(f"{name}.{field} has non-finite entries")
            held.flags.writeable = False
            object.__setattr__(self, field, held)
        self._check()

    def _shape(self):
        return (self.ground.n_subsets,)

    def _check(self):
        """The subclass's own checks of its held arrays."""

    def _combine(self, op, other):
        """``op`` of the values and ``other``: a table of the same kind on
        the same ground, or a number."""
        if isinstance(other, type(self)):
            _same_ground(self, other)
            other = other.values
        else:
            other = float(other)
        return self._take(self.ground, op(self.values, other))


@dataclass(frozen=True)
class SetFunction(_Table):
    """A real function on finite configurations of a discrete ground,
    tabulated densely over the subset lattice.

    ``values[mask]`` is the value at the subset with that bitmask.
    """

    ground: DiscreteGround
    values: np.ndarray

    def __call__(self, arg):
        if isinstance(arg, Configuration):
            arg = arg.mask
        return float(self.values[arg])

    # small algebra, enough for building test functionals
    __add__ = partialmethod(_Table._combine, operator.add)
    __sub__ = partialmethod(_Table._combine, operator.sub)
    __mul__ = __rmul__ = partialmethod(_Table._combine, operator.mul)


def constant_function(ground, value=1.0):
    size = _discrete(ground, "constant_function").n_subsets
    return SetFunction._take(ground, np.full(size, float(value)))


def indicator_empty(ground):
    """Indicator of the empty configuration, the unit of both convolutions."""
    v = np.zeros(_discrete(ground, "indicator_empty").n_subsets)
    v[0] = 1.0
    return SetFunction._take(ground, v)


def power_function(ground, z):
    """The functional ``eta -> z**|eta|`` (Poisson-type correlation table)."""
    size = _discrete(ground, "power_function").subset_size
    return SetFunction._take(ground, float(z) ** size)


# ---------------------------------------------------------------------------
# reference-measure integration
# ---------------------------------------------------------------------------

def lp_integral(G, z):
    """Exact lattice integral ``sum_eta G(eta) z**|eta| prod m(x)``."""
    w = G.ground.lp_weights(z)
    return float(np.dot(G.values, w))


def lp_integral_mc(G, z, window, n_max, samples_per_order, seed):
    """Monte Carlo estimate of the continuum reference-measure integral.

    Truncates the order expansion at ``n_max`` and, for each order ``n``,
    averages ``G`` over i.i.d. uniform ``n``-point configurations:
    ``sum_{n<=n_max} z^n vol^n / n! * mean_n``.  Deterministic for a fixed
    seed.  A draw that repeats a point is redrawn.

    Returns
    -------
    (estimate, std_error) : pair of floats
    """
    if n_max < 0 or samples_per_order < 1:
        raise ValidationError("n_max >= 0 and samples_per_order >= 1 required")
    if not 0 < z < math.inf:
        raise ValidationError("intensity z must be positive and finite")
    if not isinstance(window, BoxWindow):
        raise ValidationError("lp_integral_mc needs a continuum window")
    vol = window.volume
    streams = split_streams(seed, n_max + 1)
    estimate = 0.0
    variance = 0.0
    for n, rng in enumerate(streams):
        coef = (z * vol) ** n / math.factorial(n)
        if n == 0:
            g0 = _eval_continuum(G, PointConfiguration(window))
            estimate += coef * g0
            continue
        vals = np.empty(samples_per_order)
        for s in range(samples_per_order):
            while True:
                pts = tuple(sorted(map(
                    tuple, window.sample_uniform(rng, n).tolist())))
                if all(a != b for a, b in zip(pts, pts[1:])):
                    break
            # per axis on the tuples: a numpy check costs more on a few points
            if not all(lo <= min(col) and max(col) <= hi
                       for col, (lo, hi) in zip(zip(*pts), window.box)):
                raise ValidationError("a drawn point lies outside the window")
            vals[s] = _eval_continuum(G, PointConfiguration(window, pts))
        estimate += coef * float(vals.mean())
        if samples_per_order > 1:
            variance += coef ** 2 * float(vals.var(ddof=1)) / samples_per_order
    return estimate, math.sqrt(variance)


def _eval_continuum(G, gamma):
    v = G(gamma)
    if not math.isfinite(v):
        raise EvaluationError(f"set function returned non-finite value {v}",
                              configuration=gamma)
    return float(v)


# ---------------------------------------------------------------------------
# randomness contract: one master seed, independent derived streams
# ---------------------------------------------------------------------------

def split_streams(master_seed, n):
    """``n`` independent bit-reproducible generators from one master seed."""
    seq = np.random.SeedSequence(master_seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def json_dumps(doc):
    """Canonical JSON used by all serializers (stable key order)."""
    return json.dumps(doc, sort_keys=True, indent=2)
