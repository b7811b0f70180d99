"""Brute-force enumerations of the lattice kernels, kept as test oracles.

Each function transcribes a defining sum directly, one term at a time or one
target at a time, and never calls the sweep that the program's fast paths
are built from.  They cost 2^n to 9^n, so tests use them on small lattices.
Array-valued oracles take and return plain value tables, so that the same
call on ``abs`` of the inputs gives the sum of the absolute values of the
terms, the scale that rounding in the fast paths is judged against.
:func:`cell_moments` is the continuum counterpart: the point-by-point loop
that the batched correlation estimator replaced.
"""

import math

import numpy as np

from confpp.core import SetFunction


def k_transform_naive(G):
    """Quadratic-time transcription of the defining sum."""
    n = G.ground.n_subsets
    out = np.zeros(n)
    for gamma in range(n):
        sub = gamma
        acc = G.values[0]
        while sub:
            acc += G.values[sub]
            sub = (sub - 1) & gamma
        out[gamma] = acc
    return SetFunction(G.ground, out)


def k_inverse_naive(F):
    """Direct signed-sum transcription of the inverse."""
    n = F.ground.n_subsets
    size = F.ground.subset_size
    out = np.zeros(n)
    for eta in range(n):
        sub = eta
        acc = 0.0
        while True:
            sign = -1.0 if (size[eta] - size[sub]) & 1 else 1.0
            acc += sign * F.values[sub]
            if sub == 0:
                break
            sub = (sub - 1) & eta
        out[eta] = acc
    return SetFunction(F.ground, out)


def disjoint_conv(v1, v2):
    """``sum_{a n b = 0, a u b = eta} v1(a) v2(b)``: every disjoint pair once."""
    n = len(v1)
    masks = np.arange(n)
    out = np.zeros(n)
    for a in range(n):
        free = masks[(masks & a) == 0]
        out += np.bincount(free | a, weights=v1[a] * v2[free], minlength=n)
    return out


def disjoint_pair_sum(h, a, b):
    """``sum_{eta n xi = 0} h(eta u xi) a(eta) b(xi)``: a literal double loop."""
    h, a, b = (list(map(float, v)) for v in (h, a, b))
    total = 0.0
    for eta in range(len(h)):
        for xi in range(len(h)):
            if eta & xi == 0:
                total += h[eta | xi] * a[eta] * b[xi]
    return total


def covering_conv(v1, v2):
    """``sum_{a u b = eta} v1(a) v2(b)``: every ordered pair once."""
    n = len(v1)
    masks = np.arange(n)
    out = np.zeros(n)
    for a in range(n):
        out += np.bincount(masks | a, weights=v1[a] * v2, minlength=n)
    return out


def _covering_pairs(n_subsets):
    """Per-target arrays of the ordered pairs ``(a, b)`` with ``a u b = eta``."""
    out = []
    for eta in range(n_subsets):
        firsts, seconds = [], []
        a = eta
        while True:
            rest = eta & ~a
            s = a
            while True:
                firsts.append(a)
                seconds.append(rest | s)
                if s == 0:
                    break
                s = (s - 1) & a
            if a == 0:
                break
            a = (a - 1) & eta
        out.append((np.array(firsts), np.array(seconds)))
    return out


def double_covering_conv(v1, v2):
    """Pair tables: covers ``(a+, b+)`` and ``(a-, b-)`` of each coordinate."""
    n = v1.shape[0]
    covers = _covering_pairs(n)
    out = np.empty((n, n))
    for ep in range(n):
        ap, bp = covers[ep]
        for em in range(n):
            am, bm = covers[em]
            out[ep, em] = float(np.sum(v1[np.ix_(ap, am)] * v2[np.ix_(bp, bm)]))
    return out


def product_weights(ground, c):
    """``prod_{i in eta} c m_i`` for every mask, one product at a time."""
    return np.array([math.prod(c * m for i, m in enumerate(ground.weights)
                               if eta >> i & 1)
                     for eta in range(ground.n_subsets)])


def reference_sum(values, ground, z, sign):
    """``sum_{eta n gamma = 0} sign^|eta| wt_z(eta) values(gamma u eta)``.

    The projection is ``N_z`` times this with ``sign = -1``, the recovery
    this with ``sign = +1`` divided by ``N_z``.
    """
    n = ground.n_subsets
    masks = np.arange(n)
    w = product_weights(ground, sign * z)
    out = np.empty(n)
    for gamma in range(n):
        free = masks[(masks & gamma) == 0]
        out[gamma] = float(np.dot(w[free], values[gamma | free]))
    return out


def reference_norm(ground, z):
    """``N_z = prod_i (1 + z m_i)``."""
    return float(np.prod(1.0 + z * np.asarray(ground.weights)))


def projection(values, ground, z):
    return reference_norm(ground, z) * reference_sum(values, ground, z, -1.0)


def recovery(values, ground, z):
    return reference_sum(values, ground, z, 1.0) / reference_norm(ground, z)


def kk_transform_naive(values, ground):
    """The defining subset sum in each coordinate of a pair table."""
    def rows(table):
        return np.array([k_transform_naive(SetFunction(ground, r)).values
                         for r in table])
    return rows(rows(values).T).T


def lenard_pairings(values, ground):
    """``<k_inverse_naive(1_xi), k>`` for every mask ``xi``: one probe each.

    The pairing is against the unit reference weights ``prod_{i in eta} m_i``.
    """
    n = ground.n_subsets
    w = product_weights(ground, 1.0)
    out = np.empty(n)
    for xi in range(n):
        probe = np.zeros(n)
        probe[xi] = 1.0
        G = k_inverse_naive(SetFunction(ground, probe)).values
        out[xi] = float(np.dot(G * values, w))
    return out


def pair_lenard_pairings(values, ground):
    """Per cell ``(a, b)``, the sum over ``A superset a``, ``B superset b``
    of ``(-1)^(|A\\a| + |B\\b|) k(A, B) wt(A) wt(B)``.

    One cell at a time, every superset pair enumerated.
    """
    n = ground.n_subsets
    w = product_weights(ground, 1.0)
    out = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            acc = 0.0
            for A in range(n):
                if a & ~A:
                    continue
                for B in range(n):
                    if b & ~B:
                        continue
                    flips = bin(A & ~a).count("1") + bin(B & ~b).count("1")
                    acc += (-1.0) ** flips * values[A, B] * w[A] * w[B]
            out[a, b] = acc
    return out


def superset_contraction(table, ground, z):
    """``c[x, xi] = sum_{omega superset xi} table[x, omega] wt_z(omega)``.

    One ``(x, xi)`` at a time, every superset enumerated.
    """
    n, nsub = ground.n_sites, ground.n_subsets
    full = nsub - 1
    w = product_weights(ground, z)
    out = np.zeros((n, nsub))
    for x in range(n):
        for xi in range(nsub):
            free = full & ~xi
            s = free
            while True:
                out[x, xi] += table[x, xi | s] * w[xi | s]
                if s == 0:
                    break
                s = (s - 1) & free
    return out


def generator_value(kernel, F, gamma, z=1.0):
    """``(LF)(gamma)`` of the birth-death generator at one mask ``gamma``.

    Every move out of ``gamma``, one term at a time: a death of ``x`` lands
    on ``(gamma \\ x) u omega`` with ``omega`` disjoint from ``gamma \\ x``,
    a birth on ``gamma u omega`` with ``omega`` disjoint from ``gamma``.
    """
    ground = kernel.ground
    w = product_weights(ground, z)
    vals = F.values
    total = 0.0
    for x in range(ground.n_sites):
        if not gamma >> x & 1:
            continue
        rest = gamma & ~(1 << x)
        for om in range(ground.n_subsets):
            if not om & rest:
                total += kernel.death[x, om] * w[om] * (vals[rest | om]
                                                        - vals[gamma])
            if not om & gamma:
                total += kernel.birth[x, om] * w[om] * (vals[gamma | om]
                                                        - vals[gamma])
    return float(total)


def continuum_matrix(kernel, z):
    """Matrix of the continuum form, one entry and one term at a time.

    Row ``eta`` of ``generators.hat_L_continuum_action(kernel, z).dense()``:
    for each ``x in eta``, with ``c_d``, ``c_b`` the superset contractions of
    the death and birth tables, ``-(c_d + c_b)(x, 0)`` at ``eta``,
    ``-c_b(x, 0)`` at ``eta \\ x``, and for every ``xi`` avoiding ``eta``,
    ``[xi != 0] c_d(x, xi) + c_b(x, xi)`` at ``(eta \\ x) u xi`` and
    ``c_b(x, xi)`` at ``eta u xi``.
    """
    ground = kernel.ground
    n, nsub = ground.n_sites, ground.n_subsets
    cd = superset_contraction(kernel.death, ground, z)
    cb = superset_contraction(kernel.birth, ground, z)
    M = np.zeros((nsub, nsub))
    for eta in range(nsub):
        free = (nsub - 1) & ~eta
        for x in range(n):
            if not eta >> x & 1:
                continue
            rest = eta & ~(1 << x)
            M[eta, eta] -= cd[x, 0] + cb[x, 0]
            M[eta, rest] -= cb[x, 0]
            xi = free
            while True:
                M[eta, rest | xi] += (cd[x, xi] if xi else 0.0) + cb[x, xi]
                M[eta, eta | xi] += cb[x, xi]
                if xi == 0:
                    break
                xi = (xi - 1) & free
    return M


def cell_moments(samples, cells):
    """``prod_i #(gamma n B_i) / prod_i |B_i|`` per configuration.

    One configuration, one cell and one point at a time, through the scalar
    closed-box test ``BoxWindow.contains``.
    """
    vols = np.prod([c.volume for c in cells])
    vals = np.empty(len(samples))
    for i, gamma in enumerate(samples):
        prod = 1.0
        for c in cells:
            prod *= sum(1 for p in gamma.points if c.contains(p))
        vals[i] = prod / vols
    return vals
