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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Configuration, SetFunction, _reals, _same_ground,
                   lp_integral)
from .errors import CapacityError, ValidationError

RANKED_MAX_SITES = 20


# ---------------------------------------------------------------------------
# the lattice sweep
# ---------------------------------------------------------------------------

def _transpose_in_place(squares):
    """Transpose each square of the C-contiguous ``squares`` (a stack of
    squares in the last two axes, whose side is a power of two) in place,
    in tiles of at most 64 x 64: the diagonal tiles through one tile-sized
    buffer, the others by swapping each pair across the diagonal."""
    N = squares.shape[-1]
    t = min(64, N)
    buf = np.empty((t, t))
    for M in squares.reshape(-1, N, N):
        for i in range(0, N, t):
            block = M[i:i + t, i:i + t]
            np.copyto(buf, block.T)
            block[...] = buf
            for j in range(i + t, N, t):
                upper, lower = M[i:i + t, j:j + t], M[j:j + t, i:i + t]
                np.copyto(buf, upper)
                upper[...] = lower.T
                lower[...] = buf.T
    return squares


# Every pass runs under a ufunc buffer of 256 entries.  Under numpy's
# default of 8192, a pass whose pairs are runs of 2**i entries, 4 <= i < 12,
# runs up to twice as slow (2**22-entry table, one thread of a 2-core KVM
# box, numpy 2.4.6, best of 7, two runs: bits 8-11 2.7-4.0 against 1.5-2.7
# ms, bits 4-7 3.4-7.6 against 2.1-6.2 ms; bits 0-3 and from 12 on the
# same either way).  Buffers of 64 to 512 entries measured alike; 1024 lost
# again on bits 5-8, 2048 on bits 5-9.
_BUFSIZE = 256

# Tables on fewer sites keep every pass in place.  Under that buffer, from
# 10 sites on the per-square transposes of a stack cost less than the short
# passes they replace, and one table comes out even (that box, median of
# 400 alternating calls, in place against transposed: a (2, 11, 2**10)
# stack 278 against 206 us, a (2, 12, 2**11) stack 584 against 409 us, one
# 10-site table 48 against 47 us).  At 9 sites they lose (median of 21: a
# (2, 10, 2**9) stack 124 against 176 us, one table 31 against 38 us).
_TRANSPOSE_MIN_SITES = 10

# Passes over bits below 17 run in chunks of 2**17 floats, 1 MiB, half the
# per-core L2 of the 2-core KVM box above: the 12 row-bit sweeps of a
# 4^12-float matrix took 0.157 s in whole passes and 0.125 s in chunks (in
# one run, chunks of 2**17 to 2**20: 0.112-0.118 s, 2**16: 0.131, 2**15:
# 0.142).  Under the 256-entry buffer the same sweeps took a median of
# 112 ms in whole passes, 97 in chunks of 2**16 and 85 in chunks of 2**17
# (15 alternating rounds); chunks of 2**18 took 76 ms, a gain left to a
# change of its own (ROADMAP).
_BLOCK_BITS = 17


def _sweep_bit(table, i, superset, c):
    view = table.reshape(table.shape[:-1] + (-1, 2, 1 << i))
    lo, hi = view[..., 0, :], view[..., 1, :]
    src, dst = (hi, lo) if superset else (lo, hi)
    if c == 1.0:
        dst += src
    elif c == -1.0:
        dst -= src
    else:
        dst += c * src


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
    ``table`` must be a C-contiguous float64 array whose last axis has
    ``2**n`` entries, every site must lie in ``[0, n)``, and ``weights``,
    if given, must hold one finite real per swept site; any other input
    raises :class:`ValidationError` before the first pass.  ``table`` is
    returned.

    A pass over bit ``i`` runs numpy's inner loop over runs of only
    ``2**i`` entries, so low bits cost per-call overhead rather than memory
    traffic.  With ``h = n // 2``, each run of two or more consecutive
    sites below ``h`` is therefore swept in a transposed layout (from
    ``_TRANSPOSE_MIN_SITES`` sites on): every table is viewed as
    ``2**h x 2**h`` squares, each square is transposed in place, site ``s``
    is swept as bit ``s + h``, and the squares are transposed back.  On a
    last axis of more than ``2**_BLOCK_BITS`` entries, each run of sites
    swept as bits below ``_BLOCK_BITS`` is swept one chunk of that many
    entries at a time, in cache.  The passes run under numpy's ufunc
    buffer of ``_BUFSIZE`` entries, and the caller's buffer size is back in
    place when the sweep returns or raises.  Every entry gets the same
    additions in the same order, so the result is the same bit for bit.
    """
    if table.dtype != np.float64:
        raise ValidationError(
            f"sweep needs a float64 table, not {table.dtype}")
    if not table.flags.c_contiguous:
        raise ValidationError("sweep needs a C-contiguous table")
    size = table.shape[-1] if table.ndim else 0
    n = size.bit_length() - 1
    if size != 1 << max(n, 0):
        raise ValidationError(
            f"sweep needs a last axis of 2**n entries, not {size}")
    sites = list(sites)
    if not all(0 <= i < n for i in sites):
        raise ValidationError(f"sweep sites must lie in [0, {n})")
    coefs = [sign] * len(sites)
    if weights is not None:
        try:
            weights = _reals(weights)
        except TypeError:
            weights = None
        if (weights is None or len(weights) != len(sites)
                or not all(map(math.isfinite, weights))):
            raise ValidationError(
                "sweep weights must be one finite real per swept site")
        coefs = [sign * w for w in weights]
    h = n // 2
    with np.errstate():  # restores the caller's buffer size on exit
        np.setbufsize(_BUFSIZE)
        for low, run in itertools.groupby(enumerate(sites),
                                          key=lambda js: js[1] < h):
            run = list(run)
            shift = h if (low and len(run) > 1
                          and n >= _TRANSPOSE_MIN_SITES) else 0
            if shift:
                _transpose_in_place(table.reshape(-1, 1 << h, 1 << h))
            for small, part in itertools.groupby(
                    run, key=lambda js: js[1] + shift < _BLOCK_BITS):
                part = [(i + shift, coefs[j]) for j, i in part]
                for chunk in (table.reshape(-1, 1 << _BLOCK_BITS)
                              if small and n > _BLOCK_BITS else (table,)):
                    for i, c in part:
                        _sweep_bit(chunk, i, superset, c)
            if shift:
                _transpose_in_place(table.reshape(-1, 1 << h, 1 << h))
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
    return SetFunction._take(G.ground, zeta_values(G.values, G.ground.n_sites))


def k_inverse(F):
    """Moebius inverse: ``G(eta) = sum_{xi subset eta} (-1)^|eta\\xi| F(xi)``.

    Exact two-sided inverse of :func:`k_transform`.
    """
    return SetFunction._take(F.ground,
                             moebius_values(F.values, F.ground.n_sites))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def covering_values(v1, v2, n_sites):
    """``sum_{a u b = eta} v1(a) v2(b)`` as ``moebius(zeta v1 * zeta v2)``."""
    out = zeta_values(v1, n_sites)
    out *= zeta_values(v2, n_sites)
    return sweep(out, range(n_sites), sign=-1.0)


def ranked_zeta(ground, *operands):
    """``(len(operands), n + 1, 2**n)`` stack: row ``j`` of each operand is
    the zeta transform of its rank-``j`` entries.  Holds ``(n + 1) 2^n``
    floats per operand, so it is capped at ``RANKED_MAX_SITES`` sites."""
    n = ground.n_sites
    if n > RANKED_MAX_SITES:
        raise CapacityError(
            f"{n} sites exceed the ranked-convolution cap of "
            f"{RANKED_MAX_SITES}")
    ranked = np.zeros((len(operands), n + 1, ground.n_subsets))
    for row, v in zip(ranked, operands):  # row j: the rank-j entries
        row[ground.subset_size, np.arange(ground.n_subsets)] = v
    return sweep(ranked, range(n))


def ranked_moebius(pairs, top):
    """Rows ``m = 0 .. top`` of ``sum_(i + j = m) f[i] g[j]`` summed over
    the pairs ``(f, g)`` of :func:`ranked_zeta` stacks, mapped back by one
    Moebius sweep: by linearity, the sum of the pairs' ranked products."""
    n = pairs[0][0].shape[0] - 1
    out = np.zeros((top + 1, pairs[0][0].shape[-1]))
    tmp = np.empty(out.shape[-1])
    for f, g in pairs:
        for i in range(min(n, top) + 1):
            for j in range(min(n, top - i) + 1):
                out[i + j] += np.multiply(f[i], g[j], out=tmp)
    return sweep(out, range(n), sign=-1.0)


def ranked_products(v1, v2, ground, top):
    """Rank-pair split of the covering product, ``O(n^2 2^n)``.

    Row ``m`` of the result, for ``m = 0 .. top``, is ``sum v1(a) v2(b)``
    over the ordered pairs with ``a u b = eta`` and ``|a| + |b| = m``: the
    zeta transforms of the rank slices of each operand are multiplied rank
    pair by rank pair and mapped back with one Moebius sweep of the stack.
    At ``m = |eta|`` the pairs are the disjoint splits of ``eta`` (the fast
    subset convolution of Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier
    meets Moebius", STOC 2007); ``m > |eta|`` collects overlapping pairs.
    Capped at ``RANKED_MAX_SITES`` sites, as :func:`ranked_zeta`.
    """
    return ranked_moebius([ranked_zeta(ground, v1, v2)], top)


def conv_disjoint(G1, G2):
    """Disjoint-pair convolution ``H(eta) = sum_{xi subset eta} G1(xi) G2(eta\\xi)``.

    The rank-``|eta|`` row of :func:`ranked_products`.
    """
    ground = _same_ground(G1, G2)
    ranked = ranked_products(G1.values, G2.values, ground, ground.n_sites)
    size = ground.subset_size
    return SetFunction._take(ground, ranked[size, np.arange(size.size)])


def conv_union(G1, G2):
    """Covering convolution: sum over ordered three-partitions of the target.

    Each three-partition ``(z1, z2, z3)`` of ``eta`` contributes
    ``G1(z1 u z2) G2(z2 u z3)``; equivalently, each ordered pair ``(a, b)``
    with ``a u b = eta`` contributes ``G1(a) G2(b)`` (set ``z2 = a n b``).
    The transform turns it into a pointwise product, so it is computed as
    ``Kinv(KG1 * KG2)``.
    """
    ground = _same_ground(G1, G2)
    return SetFunction._take(
        ground, covering_values(G1.values, G2.values, ground.n_sites))


def exp_vector(ground, f):
    """Multiplicative vector ``eta -> prod_{x in eta} f(x)``; 1 at the empty set.

    ``f`` is a per-site sequence of reals; the vector is the weighted
    subset sweep of the indicator of the empty set.
    """
    f = tuple(float(v) for v in f)
    if len(f) != ground.n_sites:
        raise ValidationError("per-site table length != site count")
    vals = np.zeros(ground.n_subsets)
    vals[0] = 1.0
    return SetFunction._take(ground, sweep(vals, range(len(f)), weights=f))


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
    w = _same_ground(H, G1, G2).lp_weights(z)
    lhs = lp_integral(H * conv_disjoint(G1, G2), z)
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

