"""Ground-space models, configurations, set functions and lattice integration.

Two kinds of ground model coexist:

* a *discrete* ground: a finite list of weighted sites, on which every
  function of finite configurations is a dense table indexed by subset
  bitmask (bit ``i`` = site ``i``, little-endian);
* a *continuum* window: an axis-aligned box carrying Lebesgue measure, on
  which configurations are finite sorted point sets and integrals are
  estimated by Monte Carlo.

The reference measure weights a subset ``eta`` by ``z**|eta| * prod m(x)``
(discrete) with the empty set carrying weight one.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, EvaluationError, ValidationError

MAX_SITES = 24


# ---------------------------------------------------------------------------
# ground models
# ---------------------------------------------------------------------------

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
        w = tuple(float(x) for x in self.weights)
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
        size = np.zeros(1, dtype=np.int64)
        for _ in self.weights:
            size = np.concatenate([size, size + 1])
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

    def validate_mask(self, mask):
        if not 0 <= mask < self.n_subsets:
            raise ValidationError(f"bitmask {mask} out of range for "
                                  f"{self.n_sites} sites")


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
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.box)
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

    @property
    def total_mass(self):
        return self.volume

    def contains(self, point):
        if len(point) != len(self.box):
            return False
        for x, (lo, hi) in zip(point, self.box):
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
        lo, hi, _ = self._bounds
        return np.all((lo <= points) & (points <= hi), axis=1)

    def contains_box(self, sub):
        """Whether the box `sub` (same format) lies inside this window."""
        if len(sub.box) != self.dimension:
            return False
        return all(lo <= slo and shi <= hi
                   for (slo, shi), (lo, hi) in zip(sub.box, self.box))

    @cached_property
    def _bounds(self):
        """Lower corner, upper corner and side lengths, read-only ``(d,)``
        arrays."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        span = hi - lo
        for a in (lo, hi, span):
            a.flags.writeable = False
        return lo, hi, span

    def sample_uniform(self, rng, n):
        """Draw ``n`` i.i.d. uniform points; shape ``(n, d)``.

        ``lo + (hi - lo) * rng.random(...)`` is the arithmetic, and the
        stream use, of ``rng.uniform(lo, hi, ...)``, so the draws are the
        same bit for bit, without that call's broadcasting set-up.
        """
        lo, _, span = self._bounds
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
    ``{"kind": "continuum", "box": [[lo, hi], ...]}``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("ground spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "discrete":
        return DiscreteGround(tuple(spec["weights"]))
    if kind == "continuum":
        return BoxWindow(tuple(tuple(b) for b in spec["box"]))
    raise ValidationError(f"unknown ground kind {kind!r}")


def ground_to_json(ground):
    if isinstance(ground, DiscreteGround):
        return {"kind": "discrete", "weights": list(ground.weights)}
    if isinstance(ground, BoxWindow):
        return {"kind": "continuum", "box": [list(b) for b in ground.box]}
    raise ValidationError(f"not a ground model: {ground!r}")


def _require_discrete(ground):
    if not isinstance(ground, DiscreteGround):
        raise ValidationError("a discrete ground model is required here")
    return ground


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """A finite simple point set over a ground model.

    On a discrete ground the points are a subset bitmask; on a continuum
    window a strictly sorted tuple of coordinate tuples.  Duplicate points
    are rejected, never merged.
    """

    ground: object
    mask: int = 0
    points: tuple = ()

    def __post_init__(self):
        if isinstance(self.ground, DiscreteGround):
            if self.points:
                raise ValidationError("discrete configurations carry a bitmask, "
                                      "not points")
            self.ground.validate_mask(self.mask)
        elif isinstance(self.ground, BoxWindow):
            if self.mask:
                raise ValidationError("continuum configurations carry points, "
                                      "not a bitmask")
            pts = tuple(tuple(float(c) for c in p) for p in self.points)
            for p in pts:
                if not self.ground.contains(p):
                    raise ValidationError(f"point {p} outside the window")
            for a, b in zip(pts, pts[1:]):
                if a == b:
                    raise ValidationError(f"duplicate point {a}")
                if a > b:
                    raise ValidationError("continuum points must be sorted")
            object.__setattr__(self, "points", pts)
        else:
            raise ValidationError(f"not a ground model: {self.ground!r}")

    def __len__(self):
        if isinstance(self.ground, DiscreteGround):
            return int(self.mask).bit_count()
        return len(self.points)

    @property
    def sites(self):
        """Site indices of a discrete configuration."""
        _require_discrete(self.ground)
        return tuple(i for i in range(self.ground.n_sites)
                     if self.mask >> i & 1)

    @classmethod
    def _unchecked(cls, ground, points):
        """Continuum configuration built without ``__post_init__``.

        Only for callers that keep the invariants themselves: ``points`` is
        a strictly sorted tuple of float tuples inside ``ground``.
        """
        gamma = object.__new__(cls)
        # the fields live in the instance dict; filling it directly skips
        # the frozen __setattr__ as well as the validation
        gamma.__dict__.update(ground=ground, mask=0, points=points)
        return gamma

    def with_point(self, p):
        """New configuration with one point added; duplicates are an error.

        On a window only the added point is checked (inside, not already
        present); the points already held were validated when this
        configuration was built.
        """
        if isinstance(self.ground, DiscreteGround):
            bit = 1 << p
            if self.mask & bit:
                raise ValidationError(f"site {p} already occupied")
            return Configuration(self.ground, self.mask | bit)
        p = tuple(map(float, p))
        if not self.ground.contains(p):
            raise ValidationError(f"point {p} outside the window")
        pts = self.points
        i = bisect.bisect_left(pts, p)
        if i < len(pts) and pts[i] == p:
            raise ValidationError(f"duplicate point {p}")
        return Configuration._unchecked(self.ground, pts[:i] + (p,) + pts[i:])

    def without_point(self, p):
        if isinstance(self.ground, DiscreteGround):
            bit = 1 << p
            if not self.mask & bit:
                raise ValidationError(f"site {p} not occupied")
            return Configuration(self.ground, self.mask & ~bit)
        p = tuple(map(float, p))
        pts = self.points
        i = bisect.bisect_left(pts, p)
        if i == len(pts) or pts[i] != p:
            raise ValidationError(f"point {p} not in the configuration")
        return Configuration._unchecked(self.ground, pts[:i] + pts[i + 1:])


def count_in(gamma, region):
    """Number of points of ``gamma`` inside ``region``.

    ``region`` is an iterable of site indices (discrete grounds) or a
    :class:`BoxWindow` contained in the window (continuum grounds).
    """
    if isinstance(gamma.ground, DiscreteGround):
        n = gamma.ground.n_sites
        mask = 0
        for i in region:
            if not 0 <= i < n:
                raise ValidationError(f"site {i} outside the ground")
            mask |= 1 << i
        return int(gamma.mask & mask).bit_count()
    if not isinstance(region, BoxWindow):
        raise ValidationError("continuum regions must be BoxWindow instances")
    if not gamma.ground.contains_box(region):
        raise ValidationError("region not contained in the window")
    return sum(1 for p in gamma.points if region.contains(p))


# ---------------------------------------------------------------------------
# set functions on the subset lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetFunction:
    """A real function on finite configurations of a discrete ground,
    tabulated densely over the subset lattice.

    ``values[mask]`` is the value at the subset with that bitmask.
    """

    ground: DiscreteGround
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        _require_discrete(self.ground)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.ground.n_subsets,):
            raise ValidationError(
                f"table length {vals.shape} != 2**n_sites "
                f"({self.ground.n_subsets})")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("set-function entries must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, arg):
        if isinstance(arg, Configuration):
            arg = arg.mask
        return float(self.values[arg])

    def same_ground(self, other):
        return self.ground.weights == other.ground.weights

    # small algebra, enough for building test functionals
    def __add__(self, other):
        return SetFunction(self.ground, self.values + _coerce(self, other))

    def __sub__(self, other):
        return SetFunction(self.ground, self.values - _coerce(self, other))

    def __mul__(self, other):
        return SetFunction(self.ground, self.values * _coerce(self, other))

    __rmul__ = __mul__

    def to_json(self):
        return {"ground": ground_to_json(self.ground),
                "values": self.values.tolist()}

    @classmethod
    def from_json(cls, doc):
        return cls(make_ground(doc["ground"]), np.asarray(doc["values"]))


def _coerce(sf, other):
    if isinstance(other, SetFunction):
        if not sf.same_ground(other):
            raise ValidationError("set functions on different grounds")
        return other.values
    return float(other)


def constant_function(ground, value=1.0, label="const"):
    return SetFunction(ground, np.full(ground.n_subsets, float(value)), label)


def indicator_empty(ground):
    """Indicator of the empty configuration, the unit of both convolutions."""
    v = np.zeros(ground.n_subsets)
    v[0] = 1.0
    return SetFunction(ground, v, "1_{empty}")


def power_function(ground, z, label=None):
    """The functional ``eta -> z**|eta|`` (Poisson-type correlation table)."""
    v = float(z) ** ground.subset_size
    return SetFunction(ground, v, label or f"{z}^|.|")


# ---------------------------------------------------------------------------
# reference-measure integration
# ---------------------------------------------------------------------------

def lp_integral(G, z):
    """Exact lattice integral ``sum_eta G(eta) z**|eta| prod m(x)``."""
    w = G.ground.lp_weights(z)
    return float(np.dot(G.values, w))


def lp_truncation_tail(z, volume, n_max):
    """Upper bound on the mass ignored by truncating the order sum at n_max.

    Bounds ``sum_{n>n_max} (z vol)^n / n!`` by the first omitted term times
    a geometric correction.
    """
    a = z * volume
    t = a ** (n_max + 1) / math.factorial(n_max + 1)
    if a < n_max + 2:
        t /= 1.0 - a / (n_max + 2)
    else:  # crude but safe
        t = math.exp(a)
    return t


def lp_integral_mc(G, z, window, n_max, samples_per_order, seed):
    """Monte Carlo estimate of the continuum reference-measure integral.

    Truncates the order expansion at ``n_max`` and, for each order ``n``,
    averages ``G`` over i.i.d. uniform ``n``-point configurations:
    ``sum_{n<=n_max} z^n vol^n / n! * mean_n``.  Deterministic for a fixed
    seed.

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
            g0 = _eval_continuum(G, Configuration(window))
            estimate += coef * g0
            continue
        vals = np.empty(samples_per_order)
        for s in range(samples_per_order):
            gamma = uniform_configuration(window, rng, n)
            vals[s] = _eval_continuum(G, gamma)
        estimate += coef * float(vals.mean())
        if samples_per_order > 1:
            variance += coef ** 2 * float(vals.var(ddof=1)) / samples_per_order
    return estimate, math.sqrt(variance)


def uniform_configuration(window, rng, n):
    """Configuration of ``n`` i.i.d. uniform points of ``window``.

    A draw that repeats a point is redrawn.  The sorted point tuples are
    checked once for adjacent repeats and once per axis for window
    membership, so the configuration is built without re-validation.
    """
    while True:
        pts = sorted(map(tuple, window.sample_uniform(rng, n).tolist()))
        if all(a != b for a, b in zip(pts, pts[1:])):
            break
    # per axis on the tuples: a numpy check costs more on a few points
    if not all(lo <= min(col) and max(col) <= hi
               for col, (lo, hi) in zip(zip(*pts), window.box)):
        raise ValidationError("a drawn point lies outside the window")
    return Configuration._unchecked(window, tuple(pts))


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
