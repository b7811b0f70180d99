"""Brute-force enumerations of the lattice kernels, kept as test oracles.

Each function transcribes a defining sum directly, one term at a time or one
target at a time, and never calls the sweep that the program's fast paths
are built from.  They cost 2^n to 9^n, so tests use them on small lattices.
Array-valued oracles take and return plain value tables, so that the same
call on ``abs`` of the inputs gives the sum of the absolute values of the
terms, the scale that rounding in the fast paths is judged against.
:func:`cell_moments` is the continuum counterpart: the point-by-point loop
that the batched correlation estimator replaced, and
:func:`insertion_sides` the one-state-at-a-time loop behind the Mecke and
GNZ right-hand sides.  :func:`point_batch` packs configurations into a
``PointBatch`` one point at a time, and :func:`point_tuples` and
:func:`configurations` read a batch back one sample at a time.
:func:`papangelou_table`, :func:`gibbs_table` and
:func:`gibbs_convolution_rhs` are the one-query-at-a-time forms of the
lattice Gibbs layer.  :func:`sweep_per_bit` is the reference for that
sweep itself: one in-place pass per bit over the whole table, with no
change of layout.  :func:`adjoint_hat_L` is the dense adjoint of a
generator matrix, which the program's checks never build, and
:func:`hat_L_covering_pairs` the covering-pair form of the conjugated
generator.
:func:`birth_death_states` and :func:`birth_death_residual` run the
birth--death chain with one ``rng.random()`` call per uniform,
:func:`tonks_count_pmf` is the exact count law of the 1-D hard-core gas, and
:func:`mixed_poisson_count_pmf` the mixed Poisson count law by a recurrence
over ``n``, one atom at a time.
"""

import bisect
import math

import numpy as np

from confpp.core import Configuration, PointConfiguration, SetFunction
from confpp.generators import LatticeOperator
from confpp.errors import CocycleError
from confpp.samplers import PointBatch


def sweep_per_bit(table, sites, superset=False, sign=1.0, weights=None):
    """:func:`confpp.transforms.sweep` as one pass per bit ``i``, with the
    last axis viewed as ``(..., 2**(n-1-i), 2, 2**i)`` every time."""
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


def adjoint_hat_L(op, z=1.0):
    """Dense adjoint of ``op`` w.r.t. ``<<G, k>> = sum_eta G(eta) k(eta)
    wt_z(eta)``: ``W^-1 M^T W`` with the weights of :func:`product_weights`.
    """
    w = product_weights(op.ground, z)
    mat = (op.matrix * w[:, np.newaxis]).T / w[:, np.newaxis]
    return LatticeOperator(op.ground, mat)


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


def dense_tables(kernel):
    """``(death, birth)`` scattered into ``(n, 2^n)`` tables.

    Column ``j`` of a kernel table holds the rates at the ``j``-th mask, in
    ascending order, of those with at most ``k_trunc`` sites.
    """
    n = kernel.ground.n_sites
    masks = [m for m in range(1 << n) if bin(m).count("1") <= kernel.k_trunc]
    out = []
    for tab in (kernel.death, kernel.birth):
        dense = np.zeros((n, 1 << n))
        for j, m in enumerate(masks):
            dense[:, m] = tab[:, j]
        out.append(dense)
    return tuple(out)


def hat_L_covering_pairs(kernel, z=1.0):
    """The conjugated generator as signed covering-pair sums.

    The form ``generators.hat_L_closed`` had before its entry-wise formula.
    ``S_x(tau)`` sums a kernel table times ``wt`` over the supersets of
    ``tau`` avoiding ``x`` (:func:`superset_contraction`), for the strict
    death table and the effective birth table, which takes in the deaths
    ``d(x, omega u x)`` that re-occupy the vacated site.  For each mover
    ``x`` and each nonempty collision set ``zeta``, every ordered pair
    ``(a, b)`` covering ``(alpha \\ x) \\ zeta`` adds ``(-1)^{|zeta n
    (alpha\\x)|} (-1)^{|a|} S_x(zeta u a)`` at the column ``b u zeta``
    (death) and at ``b u zeta`` and ``b u zeta u {x}`` (birth).  The death
    part carries one extra covering-pair layer at ``zeta = 0`` replacing
    the diagonal terms.

    For a term ``(zeta, a)`` the pairs are indexed by ``m = b u (zeta n
    alpha)``, which runs over every subset of the other sites: the row is
    ``m u a u {x}``, the column ``m u zeta`` (``u {x}``) and the sign
    ``(-1)^{|m n zeta|}``, scattered with one ``np.add.at`` per mover.
    """
    ground = kernel.ground
    n, nsub = ground.n_sites, ground.n_subsets
    w = product_weights(ground, z)
    d_strict, b_eff = dense_tables(kernel)
    masks = np.arange(nsub)
    for x in range(n):
        xb = 1 << x
        has_x = (masks & xb) == xb
        lacks = masks[~has_x]
        b_eff[x, lacks] += d_strict[x, lacks | xb] * w[xb]
        d_strict[x, has_x] = 0.0
        b_eff[x, has_x] = 0.0
    Sd, Sb = (superset_contraction(t, ground, z) for t in (d_strict, b_eff))
    size = np.array([bin(m).count("1") for m in range(nsub)])
    parity = np.where(size & 1, -1.0, 1.0)
    M = np.zeros((nsub, nsub))
    K = kernel.k_trunc
    for x in range(n):
        xb = 1 << x
        others = masks[(masks & xb) == 0]
        small = others[size[others] <= K]
        zeta, a = (t.reshape(-1) for t in np.meshgrid(small, small))
        pair = (zeta != 0) & ((zeta & a) == 0) & (size[zeta | a] <= K)
        zeta, a = zeta[pair], a[pair]
        # terms (zeta, a, added bit, coefficient): the collision-free death
        # layer -S_x(a) at b u {x}, then the collision corrections
        # S_x^d + S_x^b at b u zeta and S_x^b at b u zeta u {x}
        Z = np.concatenate([np.zeros_like(small), zeta, zeta])
        A = np.concatenate([small, a, a])
        X = np.concatenate([np.full_like(small, xb), np.zeros_like(zeta),
                            np.full_like(zeta, xb)])
        S = Sd[x, zeta | a] + Sb[x, zeta | a]
        C = np.concatenate([-Sd[x, small], S, Sb[x, zeta | a]]) * parity[A]
        live = C != 0.0
        Z, A, X, C = Z[live], A[live], X[live], C[live]
        # row (A u x u m) * nsub + column (Z u X u m) over m in others;
        # times nsub is a shift by n bits, which distributes over unions
        flat = ((A | xb) * nsub | Z | X)[:, None] | others * (nsub + 1)
        # every Z is in small (ascending): one sign row per collision set
        values = parity[small[:, None] & others][np.searchsorted(small, Z)]
        values *= C[:, None]
        np.add.at(M.reshape(-1), flat.reshape(-1), values.reshape(-1))
    return M


def generator_value(kernel, F, gamma, z=1.0):
    """``(LF)(gamma)`` of the birth-death generator at one mask ``gamma``.

    Every move out of ``gamma``, one term at a time: a death of ``x`` lands
    on ``(gamma \\ x) u omega`` with ``omega`` disjoint from ``gamma \\ x``,
    a birth on ``gamma u omega`` with ``omega`` disjoint from ``gamma``.
    """
    ground = kernel.ground
    w = product_weights(ground, z)
    death, birth = dense_tables(kernel)
    vals = F.values
    total = 0.0
    for x in range(ground.n_sites):
        if not gamma >> x & 1:
            continue
        rest = gamma & ~(1 << x)
        for om in range(ground.n_subsets):
            if not om & rest:
                total += death[x, om] * w[om] * (vals[rest | om]
                                                 - vals[gamma])
            if not om & gamma:
                total += birth[x, om] * w[om] * (vals[gamma | om]
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
    cd, cb = (superset_contraction(tab, ground, z)
              for tab in dense_tables(kernel))
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


def point_batch(samples):
    """The :class:`~confpp.samplers.PointBatch` of a nonempty list of window
    configurations, one point at a time."""
    offsets = [0]
    for gamma in samples:
        offsets.append(offsets[-1] + len(gamma))
    coords = [p for gamma in samples for p in gamma.points]
    return PointBatch(np.array(offsets, dtype=np.int64),
                      np.array(coords, dtype=float).reshape(
                          -1, samples[0].ground.dimension))


def point_tuples(batch):
    """Each sample of a ``PointBatch`` as its tuple of point tuples."""
    bounds = batch.offsets.tolist()
    return [tuple(map(tuple, batch.coords[lo:hi].tolist()))
            for lo, hi in zip(bounds, bounds[1:])]


def configurations(batch, window):
    """Each sample of a ``PointBatch`` as a validated configuration: rows
    inside the window, sorted, no repeated point, or
    ``PointConfiguration.checked`` raises."""
    return [PointConfiguration.checked(window, pts)
            for pts in point_tuples(batch)]


def insertion_sides(states, proposals, h, scale, spec=None):
    """Paired sides of an insertion identity, one state at a time.

    ``proposals[i]`` is the ``(S, d)`` array of state ``i``'s uniform
    proposals.  The rows that are already points of the state are dropped;
    ``h`` and ``spec`` are called on the others through their single-
    configuration batched form when they have one, else once per proposal.
    The terms are summed left to right from 0.0 in proposal order.
    """
    lhs, rhs = [], []
    for gamma, props in zip(states, proposals):
        lhs.append(math.fsum(h(gamma, x) for x in gamma.points))
        S, d = props.shape
        array = np.array(gamma.points, dtype=float).reshape(len(gamma), d)
        if len(array):
            taken = (props[:, None, :] == array[None, :, :]).all(axis=2)
            props = props[~taken.any(axis=1)]
        rows = [tuple(u) for u in props.tolist()]
        if getattr(h, "batch", None) is not None:
            terms = np.asarray(h.batch(array, props), dtype=float)
        else:
            terms = []
            for u in rows:
                i = bisect.bisect_left(gamma.points, u)
                terms.append(h(PointConfiguration(
                    gamma.ground,
                    gamma.points[:i] + (u,) + gamma.points[i:]), u))
            terms = np.array(terms, dtype=float)
        if spec is not None:
            terms = terms * (spec.batched(array, props)
                             if spec.batch is not None
                             else np.array([spec(gamma, u) for u in rows]))
        acc = 0.0
        for v in terms.tolist():
            acc += v
        rhs.append(scale * acc / S)
    return np.array(lhs), np.array(rhs)


def papangelou_table(ground, spec):
    """``R[x, gamma] = r(gamma, x)`` for ``x`` not in ``gamma``, else 0:
    one mask at a time, with one single-configuration batched call for its
    free sites, or one scalar call per free site."""
    n = ground.n_sites
    R = np.zeros((n, ground.n_subsets))
    for mask in range(ground.n_subsets):
        on = [x for x in range(n) if mask >> x & 1]
        off = [x for x in range(n) if not mask >> x & 1]
        if spec.batch is not None:
            R[off, mask] = spec.batched(np.array(on, dtype=int),
                                        np.array(off, dtype=int))
        else:
            R[off, mask] = [spec(Configuration(ground, mask), x) for x in off]
    return R


def gibbs_table(ground, spec, tol=1e-9):
    """Gibbs law of ``spec`` by a scalar double loop, one mask at a time.

    ``u(gamma) = u(gamma - low) r(gamma - low, low) m_low`` along the
    lowest-bit insertion path, in order of size; every other last insertion
    ``y`` must give the same weight to ``tol`` relative, or
    :class:`CocycleError` is raised.  One evaluator call and one
    :class:`Configuration` per (mask, site).  Returns the normalized weights.
    """
    u = np.zeros(ground.n_subsets)
    u[0] = 1.0
    for gamma in np.argsort(ground.subset_size, kind="stable").tolist():
        if gamma == 0:
            continue
        low = gamma & -gamma
        x = low.bit_length() - 1
        prev = gamma & ~low
        u[gamma] = (u[prev] * spec(Configuration(ground, prev), x)
                    * ground.site_mass(x))
        for y in range(ground.n_sites):
            bit = 1 << y
            if bit == low or not gamma & bit:
                continue
            alt = (u[gamma & ~bit] * spec(Configuration(ground, gamma & ~bit), y)
                   * ground.site_mass(y))
            if abs(alt - u[gamma]) > tol * max(abs(u[gamma]), abs(alt), 1e-300):
                raise CocycleError(f"path-dependent at mask {gamma:#b}")
    return u / u.sum()


def gibbs_convolution_rhs(mu1, mu2, R1, R2):
    """``sum_{g1 u g2 = gamma disjoint} mu1(g1) mu2(g2) [R1[x, g1] + R2[x, g2]]``.

    Every split of every mask, one at a time, for all sites ``x`` at once;
    0 where ``x`` is in ``gamma``.  Calls no convolution and no sweep.
    """
    n_sites, n_subsets = R1.shape
    out = np.zeros(R1.shape)
    for gamma in range(n_subsets):
        g1 = gamma
        while True:
            g2 = gamma ^ g1
            out[:, gamma] += mu1[g1] * mu2[g2] * (R1[:, g1] + R2[:, g2])
            if g1 == 0:
                break
            g1 = (g1 - 1) & gamma
    for x in range(n_sites):
        out[x, [g for g in range(n_subsets) if g >> x & 1]] = 0.0
    return out


def _chain_stream(plan):
    """The chain's default stream: the first child of the master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(plan.master_seed).spawn(1)[0])


def _uniform_point(window, rng):
    return tuple([lo + (hi - lo) * rng.random() for lo, hi in window.box])


def _birth_death_move(points, spec, window, rng):
    """One birth--death move on the sorted list ``points``, in place.

    One ``rng.random()`` per uniform, in this order: the birth/death coin;
    for a birth, x's coordinates and, unless x is already a point, the
    accept draw; for a death of one of n > 0 points, the sorted index
    ``int(u * n)`` and, unless the ratio is infinite, the accept draw.
    """
    vol, n = window.volume, len(points)
    if rng.random() < 0.5:
        x = _uniform_point(window, rng)
        if x in points:
            return
        r = spec(PointConfiguration(window, tuple(points)), x)
        if rng.random() < r * vol / (n + 1):
            bisect.insort(points, x)
    elif n:
        i = int(rng.random() * n)
        rest = points[:i] + points[i + 1:]
        r = spec(PointConfiguration(window, tuple(rest)), points[i])
        ratio = n / (r * vol) if r > 0.0 else math.inf
        if ratio == math.inf or rng.random() < ratio:
            del points[i]


def birth_death_states(spec, plan):
    """The point tuples of ``sample_gibbs_bd(spec, plan)``'s states."""
    rng, points, states = _chain_stream(plan), [], []
    for _ in range(plan.burn_in):
        _birth_death_move(points, spec, plan.window, rng)
    for _ in range(plan.replicas):
        for _ in range(plan.thinning):
            _birth_death_move(points, spec, plan.window, rng)
        states.append(tuple(points))
    return states


def birth_death_residual(spec, plan, n_moves=200):
    """``detailed_balance_residual(spec, plan, n_moves)``: before each move,
    a uniform test point x and |birth ratio * death ratio - 1| at
    ``(gamma, x)`` and ``(gamma u x, x)``."""
    rng, points, worst = _chain_stream(plan), [], 0.0
    vol = plan.window.volume
    for _ in range(n_moves):
        x = _uniform_point(plan.window, rng)
        n = len(points)
        r = spec(PointConfiguration(plan.window, tuple(points)), x)
        birth = r * vol / (n + 1)
        if birth > 0:
            worst = max(worst, abs(birth * ((n + 1) / (r * vol)) - 1.0))
        _birth_death_move(points, spec, plan.window, rng)
    return worst


def tonks_count_pmf(beta, R, L=1.0):
    """``P(N = n)`` of the hard-core gas on [0, L], for n = 0 .. ceil(L / R).

    n points at pairwise distance more than R fill the volume
    ``(L - (n - 1) R)_+^n / n!`` of ordered placements times n!, so
    ``P(N = n)`` is proportional to ``beta^n (L - (n - 1) R)_+^n / n!``,
    which is 0 from ``n = ceil(L / R) + 1`` on.
    """
    w = np.array([beta ** n * max(L - (n - 1) * R, 0.0) ** n
                  / math.factorial(n) for n in range(math.ceil(L / R) + 1)])
    return w / w.sum()


def mixed_poisson_count_pmf(mixing, volume, n_max):
    """``P(N = n)``, n = 0 .. n_max, of a Poisson count with mean ``z
    volume`` and ``z`` drawn from ``mixing``, in plain floats.

    Each atom's term is carried as its logarithm by the recurrence ``log
    t_n = log t_(n-1) + log(z volume / n)`` from ``log t_0 = -z volume``, so
    that no power, factorial or ``e^(-z volume)`` overflows or underflows
    before the last step; the atoms are summed by ``math.fsum``.
    """
    means = [float(z) * volume for z in mixing.grid]
    logs = [-m for m in means]
    out = []
    for n in range(n_max + 1):
        if n:
            logs = [t + math.log(m / n) for t, m in zip(logs, means)]
        out.append(math.fsum(float(w) * math.exp(t)
                             for w, t in zip(mixing.masses, logs)))
    return out
