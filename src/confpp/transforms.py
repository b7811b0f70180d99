"""Subset-lattice transforms and convolutions.

The additive transform ``(KG)(gamma) = sum_{eta subset gamma} G(eta)`` is the
zeta transform of the subset lattice; its inverse is the signed Moebius
sweep.  Two convolutions accompany it: the disjoint-pair convolution ``*``
(sum over ordered two-partitions) and the covering convolution ``(x)`` (sum
over ordered three-partitions), for which K acts as a pointwise-product
Fourier transform.  Every transform and convolution here is built from one
in-place primitive, :func:`sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Configuration, SetFunction, lp_integral
from .errors import CapacityError, GroundMismatchError, ValidationError

RANKED_MAX_SITES = 20


def _check_same_ground(G1, G2):
    if not G1.same_ground(G2):
        raise GroundMismatchError("operands live on different grounds")


# ---------------------------------------------------------------------------
# the lattice sweep
# ---------------------------------------------------------------------------

def sweep(table, sites, superset=False, sign=1.0, weights=None):
    """In-place per-site sweep over the bitmask index of the last axis.

    For each bit ``i`` in ``sites`` the last axis is viewed as
    ``(..., 2**(n-1-i), 2, 2**i)``, splitting every mask into the pair
    without (``lo``) and with (``hi``) bit ``i``; the sweep then does
    ``hi += c * lo`` (subset direction) or ``lo += c * hi`` (superset
    direction) with ``c = sign * weights[j]`` for the ``j``-th bit swept
    (``c = sign`` without weights).  Leading axes are a stack of tables
    swept together.  With unit coefficients the subset sweep is the zeta
    transform (sum over submasks) and ``sign=-1`` its Moebius inverse.
    ``table`` must be a C-contiguous float array; it is returned.
    """
    if not table.flags.c_contiguous:
        raise ValidationError("sweep needs a C-contiguous table")
    lead = table.shape[:-1]
    for j, i in enumerate(sites):
        view = table.reshape(lead + (-1, 2, 1 << i))
        lo, hi = view[..., 0, :], view[..., 1, :]
        src, dst = (hi, lo) if superset else (lo, hi)
        c = sign if weights is None else sign * weights[j]
        if c == 1.0:
            dst += src
        elif c == -1.0:
            dst -= src
        else:
            dst += c * src
    return table


def zeta_values(values, n_sites):
    """Zeta transform of the last axis: out[mask] = sum over submasks."""
    return sweep(np.array(values, dtype=float), range(n_sites))


def moebius_values(values, n_sites):
    """Signed inverse sweep of :func:`zeta_values`."""
    return sweep(np.array(values, dtype=float), range(n_sites), sign=-1.0)


def k_transform(G):
    """Sum a set function over all subsets of each configuration.

    ``F(gamma) = sum_{eta subset gamma} G(eta)``, computed by the per-site
    sweep in O(n 2^n).
    """
    return SetFunction(G.ground, zeta_values(G.values, G.ground.n_sites),
                       f"K[{G.label}]")


def k_inverse(F):
    """Moebius inverse: ``G(eta) = sum_{xi subset eta} (-1)^|eta\\xi| F(xi)``.

    Exact two-sided inverse of :func:`k_transform`.
    """
    return SetFunction(F.ground, moebius_values(F.values, F.ground.n_sites),
                       f"Kinv[{F.label}]")


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def covering_values(v1, v2, n_sites):
    """``sum_{a u b = eta} v1(a) v2(b)`` as ``moebius(zeta v1 * zeta v2)``."""
    out = zeta_values(v1, n_sites)
    out *= zeta_values(v2, n_sites)
    return sweep(out, range(n_sites), sign=-1.0)


def ranked_products(v1, v2, ground, top):
    """Rank-pair split of the covering product, ``O(n^2 2^n)``.

    Row ``m`` of the result, for ``m = 0 .. top``, is ``sum v1(a) v2(b)``
    over the ordered pairs with ``a u b = eta`` and ``|a| + |b| = m``: the
    zeta transforms of the rank slices of each operand are multiplied rank
    pair by rank pair and mapped back with one Moebius sweep of the stack.
    At ``m = |eta|`` the pairs are the disjoint splits of ``eta`` (the fast
    subset convolution of Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier
    meets Moebius", STOC 2007); ``m > |eta|`` collects overlapping pairs.
    Holds ``(n + 1) 2^n`` floats per operand, so it is capped at
    ``RANKED_MAX_SITES`` sites.
    """
    n = ground.n_sites
    if n > RANKED_MAX_SITES:
        raise CapacityError(
            f"{n} sites exceed the ranked-convolution cap of "
            f"{RANKED_MAX_SITES}")
    size = ground.subset_size
    cols = np.arange(ground.n_subsets)
    ranked = np.zeros((2, n + 1, ground.n_subsets))
    ranked[0, size, cols] = v1  # row j of each operand: its rank-j entries
    ranked[1, size, cols] = v2
    f, g = sweep(ranked, range(n))
    out = np.zeros((top + 1, ground.n_subsets))
    tmp = np.empty(ground.n_subsets)
    for i in range(min(n, top) + 1):
        for j in range(min(n, top - i) + 1):
            out[i + j] += np.multiply(f[i], g[j], out=tmp)
    return sweep(out, range(n), sign=-1.0)


def conv_disjoint(G1, G2):
    """Disjoint-pair convolution ``H(eta) = sum_{xi subset eta} G1(xi) G2(eta\\xi)``.

    The rank-``|eta|`` row of :func:`ranked_products`.
    """
    _check_same_ground(G1, G2)
    ground = G1.ground
    ranked = ranked_products(G1.values, G2.values, ground, ground.n_sites)
    size = ground.subset_size
    out = ranked[size, np.arange(size.size)]
    return SetFunction(G1.ground, out, f"({G1.label})*({G2.label})")


def conv_union(G1, G2):
    """Covering convolution: sum over ordered three-partitions of the target.

    Each three-partition ``(z1, z2, z3)`` of ``eta`` contributes
    ``G1(z1 u z2) G2(z2 u z3)``; equivalently, each ordered pair ``(a, b)``
    with ``a u b = eta`` contributes ``G1(a) G2(b)`` (set ``z2 = a n b``).
    The transform turns it into a pointwise product, so it is computed as
    ``Kinv(KG1 * KG2)``.
    """
    _check_same_ground(G1, G2)
    out = covering_values(G1.values, G2.values, G1.ground.n_sites)
    return SetFunction(G1.ground, out, f"({G1.label})star({G2.label})")


def exp_vector(ground, f, label=None):
    """Multiplicative vector ``eta -> prod_{x in eta} f(x)``; 1 at the empty set.

    ``f`` is a per-site sequence of reals; the vector is the weighted
    subset sweep of the indicator of the empty set.
    """
    f = tuple(float(v) for v in f)
    if len(f) != ground.n_sites:
        raise ValidationError("per-site table length != site count")
    vals = np.zeros(ground.n_subsets)
    vals[0] = 1.0
    return SetFunction(ground, sweep(vals, range(len(f)), weights=f),
                       label or "exp_vector")


def _disjoint_pair_sum(h, a, b):
    """``sum_{eta n xi = 0} h(eta u xi) a(eta) b(xi)`` as a direct double sum.

    Each mask splits into its high ``ceil(n/2)`` and low ``floor(n/2)``
    bits.  For each high part ``eta`` of the first set, one matrix product
    sums over the high parts ``xi`` disjoint from it:
    ``c[m, x] = sum_xi h(eta u xi, m) b(xi, x)`` for all low masks ``m``,
    ``x``.  Only the entries at ``m = e u x`` for the ``3**floor(n/2)``
    disjoint low pairs ``(e, x)`` are read, and dotted with ``a(eta, e)``,
    so each disjoint pair contributes exactly once.  It takes
    ``2**ceil(n/2)`` passes, calls no sweep or convolution, and no pass
    holds more than ``2**n`` floats of a table.
    """
    lo = (len(h).bit_length() - 1) // 2
    low = np.arange(1 << lo)
    e, x = np.nonzero((low[:, None] & low) == 0)
    h, a, b = (v.reshape(-1, 1 << lo) for v in (h, a, b))
    high = np.arange(len(h))
    total = 0.0
    for eta in high:
        xi = high[(high & eta) == 0]
        c = h[xi | eta].T @ b[xi]
        total += float(np.dot(c[e | x, x], a[eta, e]))
    return total


def minlos_pairing(H, G1, G2, z):
    """Both sides of the pairing identity for the disjoint convolution.

    lhs integrates ``H * (G1 conv G2)`` against the reference measure; rhs
    is the double lattice sum ``sum_{eta n xi = 0} H(eta u xi) G1(eta) G2(xi)``
    with the product reference weights, summed directly over the disjoint
    pairs (:func:`_disjoint_pair_sum`).  The rhs never calls
    :func:`conv_disjoint` or :func:`sweep`, so the two sides are independent
    computations.

    Returns ``(lhs, rhs)``.
    """
    _check_same_ground(H, G1)
    _check_same_ground(H, G2)
    lhs = lp_integral(H * conv_disjoint(G1, G2), z)
    w = H.ground.lp_weights(z)
    return lhs, _disjoint_pair_sum(H.values, G1.values * w, G2.values * w)


# ---------------------------------------------------------------------------
# norm fitting on the growth-scale family of spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormFit:
    """Exact sup of ``|k(eta)| / (C^|eta| (|eta|!)^delta)`` with a witness."""

    C: float
    delta: float
    norm: float
    attained_at: Configuration


def norm_fit(k, C, delta):
    """Fit the growth-scale norm of a tabulated functional.

    The essential sup over the finite lattice is an exact maximum; ties are
    broken by the lexicographically least bitmask.
    """
    if not (0 < C < math.inf and 0 <= delta < math.inf):
        raise ValidationError("need finite C > 0 and delta >= 0")
    size = k.ground.subset_size
    fact = np.array([math.factorial(m) for m in range(k.ground.n_sites + 1)],
                    dtype=float)[size]
    scale = (C ** size) * fact ** delta
    ratios = np.abs(k.values) / scale
    best = int(np.argmax(ratios))  # argmax returns the first (least) mask
    return NormFit(C=float(C), delta=float(delta), norm=float(ratios[best]),
                   attained_at=Configuration(k.ground, best))


def poly_bound_check(G, region_size=None):
    """Verify the polynomial bound on the transform of a bounded function.

    For ``G`` with support order ``N`` (largest occupied cardinality) and
    ``C = max |G|``, checks ``|KG(gamma)| <= C (1 + |gamma|)^N`` across the
    lattice.  Returns ``(C, N, holds)``.
    """
    size = G.ground.subset_size
    C = float(np.max(np.abs(G.values)))
    support = np.nonzero(G.values)[0]
    N = int(size[support].max()) if support.size else 0
    F = k_transform(G)
    if region_size is None:
        region_size = G.ground.n_sites
    bound = C * (1.0 + np.minimum(size, region_size)) ** N
    holds = bool(np.all(np.abs(F.values) <= bound + 1e-12))
    return C, N, holds
