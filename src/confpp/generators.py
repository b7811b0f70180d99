"""Birth-death generator calculus on the subset lattice.

A kernel pair ``d(x, omega)``, ``b(x, omega)`` defines the generator

    (LF)(gamma) = sum_{x in gamma} sum_omega d(x, omega) wt(omega)
                      [F((gamma \\ x) u omega) - F(gamma)]
                + sum_{x in gamma} sum_omega b(x, omega) wt(omega)
                      [F(gamma u omega) - F(gamma)]

with ``omega`` disjoint from the respective target (so a death move may
re-occupy the vacated site) and ``|omega| <= k_trunc``.  The module computes
the transformed operator ``L^ = K^-1 L K`` three ways:

* :func:`hat_L_bruteforce` -- literal conjugation through the lattice sweeps,
  all of them along the leading axis of the matrix;
* :func:`hat_L_closed` -- the closed form of each entry: mover ``x`` gives
  row ``x u r`` and column ``X u c`` (``X`` empty or ``{x}``) the sum
  ``sum_{omega >= r ^ c} (-1)^{|omega n r|} k_X(x, omega) - [c <= r]
  (-1)^{|r \\ c|} sum_{omega n r = r \\ c} k_0(x, omega)``.  On an atomic
  ground its signs and the terms with ``omega`` meeting ``r`` are overlap
  corrections with no continuum counterpart: they are supported on moves
  where new points collide with the surviving configuration, a null event
  for diffuse intensity measures;
* :func:`hat_L_action` -- the conjugation applied to vectors.

:func:`hat_L_continuum_action` is the collision-free limit form built from
the derived kernels ``d(x)``, ``D(eta)``, ``d1(x, xi)`` (and birth analogues)
only.  It drops the atomic corrections; it is the unique member of the
family with configuration-independent coefficients and therefore the one
satisfying the derivation (dual-sum) identity exactly.

Both actions apply their operator, and its adjoint, to vectors without
building a matrix.  Each is a diagonal plus a table of move families, each
family one strided add between two sub-cube views of the bitmask index;
:meth:`MoveOperator.dense` writes the same families into a matrix.
:func:`hat_L_bruteforce` writes them transposed and conjugates that matrix
by sweeps over its row-index bits, with one tiled in-place transpose
between the zeta and the Moebius sweep.  ``L`` itself is
``K hat_L_action(kernel).apply(K^-1 F)``.  The checks read an operator only
through ``apply`` and ``adjoint_apply``, so they take a dense
:class:`LatticeOperator` and a :class:`MoveOperator` alike.

No operator with genuine death or dispersal terms can have an adjoint that
is a derivation of the disjoint convolution on the subset lattice: the
derivations of the lattice algebra are exactly the maps
``k |-> sum_x a_x * del_x`` with ``a_x`` supported on sets containing ``x``,
which only reach matrix entries that add points.  The check functions below
report the honest residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Configuration, SetFunction, _same_ground, _Table
from .errors import CapacityError, ValidationError
from .transforms import _transpose_in_place, conv_disjoint, sweep

BRUTEFORCE_MAX_SITES = 12
MAX_K_TRUNC = 3
# convolution_closure_check: an input counts as invariant when its
# stationarity defect is within the identities' 1e-10.  Where L^* is a
# derivation, the product's defect is each input's defect convolved with the
# other input, a sum of such terms, so the product is allowed ten times that.
CLOSURE_IN_TOL = 1e-10
CLOSURE_OUT_TOL = 1e-9


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BirthDeathKernel(_Table):
    """Tabulated death/birth rates ``d(x, omega)``, ``b(x, omega)``.

    A truncated kernel vanishes beyond ``|omega| <= k_trunc``, so it is
    stored on that support only: ``death`` and ``birth`` are ``(n_sites,
    omegas.size)`` arrays whose column ``j`` holds the rates at ``omega =
    omegas[j]``.
    """

    ground: object
    death: np.ndarray
    birth: np.ndarray
    k_trunc: int

    _arrays = ("death", "birth")

    def _shape(self):
        return (self.ground.n_sites, self.omegas.size)

    def _check(self):
        for name in self._arrays:
            if np.any(getattr(self, name) < 0):
                raise ValidationError(f"{name} table has negative entries")

    @cached_property
    def omegas(self):
        """Masks with ``|omega| <= k_trunc``, ascending: the columns."""
        return _omega_list(self.ground, self.k_trunc)


def _omega_list(ground, k_trunc):
    """Masks ``omega`` with ``|omega| <= k_trunc``, ascending, after checking
    ``k_trunc``: the columns of a kernel table."""
    n, stop = ground.n_sites, max(ground.n_sites, MAX_K_TRUNC) + 1
    if isinstance(k_trunc, bool) \
            or not isinstance(k_trunc, (int, np.integer)) \
            or not 0 <= k_trunc < stop:
        raise ValidationError(f"k_trunc {k_trunc!r} is not in range({stop})")
    if k_trunc > MAX_K_TRUNC and k_trunc != n:
        raise ValidationError(f"k_trunc above {MAX_K_TRUNC} must equal the "
                              "site count (a full-range kernel)")
    if k_trunc == n and n > 8:
        raise CapacityError("full-range kernels limited to 8 sites")
    return np.nonzero(ground.subset_size <= k_trunc)[0]


def random_kernel(ground, k_trunc, rng):
    """Random truncated kernel with sparse rates in ``[0.1, 1)``.

    For each site ``x`` and each ``omega`` with ``|omega| <= k_trunc``, in
    mask order, a death rate is drawn with probability 1/2 and then, when
    ``x`` is not in ``omega``, a birth rate likewise; the draw order fixes
    the kernel for a given generator state.
    """
    omegas = _omega_list(ground, k_trunc)
    death, birth = np.zeros((2, ground.n_sites, omegas.size))
    for x in range(ground.n_sites):
        for j, omega in enumerate(omegas.tolist()):
            if rng.random() < 0.5:
                death[x, j] = rng.uniform(0.1, 1.0)
            if not omega >> x & 1 and rng.random() < 0.5:
                birth[x, j] = rng.uniform(0.1, 1.0)
    return BirthDeathKernel._take(ground, death, birth, k_trunc)


def contact_kernel(ground, a):
    """Embed the contact model: unit per-point death, pairwise dispersal.

    ``a`` is a symmetric nonnegative site matrix; the birth table gets
    ``b(x, {y}) = a(x, y)``.
    """
    n = ground.n_sites
    a = np.asarray(a, dtype=float)
    if a.shape != (n, n):
        raise ValidationError(f"dispersal matrix must be {n}x{n}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValidationError("dispersal matrix must be nonnegative and finite")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValidationError("dispersal matrix must be symmetric")
    # the columns at k_trunc = 1 are the empty set, then {0}, {1}, ...
    death = np.zeros((n, n + 1))
    death[:, 0] = 1.0
    return BirthDeathKernel._take(ground, death,
                                  np.hstack([np.zeros((n, 1)), a]), 1)


@dataclass(frozen=True)
class DerivedKernels:
    """First-moment contractions of a birth-death kernel.

    ``d_bar[x] = sum_omega d(x, omega) wt(omega)``; ``D[eta] = sum_{x in eta}
    d_bar[x]``, over the whole lattice; ``d1[x, j] = sum_{omega n xi = 0}
    d(x, omega u xi) wt(omega)`` at ``xi = omegas[j]``, on the kernel's
    columns (so ``d1[:, 0] = d_bar``); likewise for birth.
    """

    d_bar: np.ndarray
    D: np.ndarray
    d1: np.ndarray
    b_bar: np.ndarray
    B: np.ndarray
    b1: np.ndarray


def derive_kernels(kernel, z=1.0):
    """The contractions on the kernel's columns: ``d1`` and ``b1`` are one
    product with the column containment matrix, ``d_bar`` and ``b_bar``
    row sums apart from it, ``D`` and ``B`` one zeta sweep."""
    ground = kernel.ground
    n = ground.n_sites
    om = kernel.omegas
    w = ground.lp_weights(z)[om]
    weighted = np.stack([kernel.death, kernel.birth]) * w
    bars = weighted.sum(axis=2)
    # contained[i, j]: omegas[i] is a subset of omegas[j]
    contained = (om[:, None] & om) == om[:, None]
    d1, b1 = weighted @ contained.T / w
    # D(eta) = sum_{x in eta} d_bar(x): the zeta sweep of the singletons
    DB = np.zeros((2, ground.n_subsets))
    DB[:, 1 << np.arange(n)] = bars
    D, B = sweep(DB, range(n))
    return DerivedKernels(d_bar=bars[0], D=D, d1=d1, b_bar=bars[1], B=B,
                          b1=b1)


# ---------------------------------------------------------------------------
# move families
# ---------------------------------------------------------------------------

def _sub_cube(free):
    """Shape and byte strides of the masks over the bits of ``free``.

    Each run of adjacent bits is one axis, the highest first, so the view
    walks its masks in ascending order.
    """
    shape, strides = (), ()
    while free:
        low = (free & -free).bit_length() - 1
        run = ((free >> low) ^ ((free >> low) + 1)).bit_length() - 1
        shape, strides = (1 << run,) + shape, (8 << low,) + strides
        free &= ~(((1 << run) - 1) << low)
    return shape, strides


def _families(ground, x, avoid, stay, enter):
    """The move families of a grid ``(x, avoid)`` as strided views.

    Every configuration ``alpha`` that holds site ``x`` and avoids
    ``avoid`` (a mask without ``x``) moves to ``(alpha \\ x) u avoid`` at
    rate ``stay`` and to ``alpha u avoid`` at rate ``enter``; zero rates
    are dropped.  Both sides of a family are sub-cubes of the bitmask
    index: the rows fix bit ``x`` to 1 and the ``avoid`` bits to 0, the
    targets fix the ``avoid`` bits to 1 and bit ``x`` to 0 or 1, and the
    free bits run over the subsets of the other sites, in the same order on
    both sides.  A family is ``(row, target, shape, strides, rate)``: the
    byte offsets of its first row and first target in a flat float vector,
    and the shape and byte strides of the sub-cube.
    """
    full = ground.n_subsets - 1
    out = []
    for x, a, s, e in zip(x.tolist(), avoid.tolist(), stay.tolist(),
                          enter.tolist()):
        if not (s or e):
            continue
        shape, strides = _sub_cube(full & ~(1 << x | a))
        for target, rate in ((a, s), (a | 1 << x, e)):
            if rate:
                out.append((8 << x, 8 * target, shape, strides, rate))
    return tuple(out)


def _site_grid(kernel):
    """``(x, j)`` over sites ``x`` and kernel columns ``j`` with ``x`` not
    in ``omegas[j]``, flattened: ``omegas[j]`` are the avoid sets of the
    move families."""
    sites = np.arange(kernel.ground.n_sites)[:, None]
    return np.nonzero((kernel.omegas >> sites) & 1 == 0)


def _check_dense(ground, what):
    if ground.n_sites > BRUTEFORCE_MAX_SITES:
        raise CapacityError(
            f"{what} limited to {BRUTEFORCE_MAX_SITES} sites "
            f"(a dense matrix of 4^n floats)")


class _RowOperator:
    """``apply`` through the subclass's ``_apply_rows`` on a stack of rows."""

    def apply(self, G):
        return SetFunction._take(_same_ground(self, G),
                                 self._apply_rows(G.values[None])[0])


@dataclass(frozen=True)
class LatticeOperator(_Table, _RowOperator):
    """A linear operator on set-function value vectors, subset-bitmask basis:
    a read-only ``matrix`` of shape ``(2**n, 2**n)``, a copy of the caller's.
    """

    ground: object
    matrix: np.ndarray

    _arrays = ("matrix",)

    def _shape(self):
        return (self.ground.n_subsets,) * 2

    def _apply_rows(self, P):
        """The operator applied to each row of the stack ``P``."""
        return P @ self.matrix.T

    def adjoint_apply(self, k, z=1.0):
        """Adjoint image w.r.t. ``<<G, k>> = sum G k wt_z``, on one vector."""
        w = _same_ground(self, k).lp_weights(z)
        return SetFunction._take(self.ground,
                                 (self.matrix.T @ (w * k.values)) / w)


@dataclass(frozen=True)
class MoveOperator(_RowOperator):
    """Matrix-free operator on set-function value vectors.

    ``diag * v`` plus the moves of a table of families (see
    :func:`_families`), each one strided add between two views of the
    vector, conjugated by the lattice transform when ``conjugated`` is set:
    ``apply`` is then ``Kinv(moves(K G))`` and ``adjoint_apply`` runs the
    transposed steps in reverse order, the superset Moebius sweep, the
    transposed moves and the superset zeta sweep.  :meth:`dense` writes the
    same families, unconjugated, into a matrix.  Same interface as
    :class:`LatticeOperator`, for the checks that only need the operator on
    vectors.
    """

    ground: object
    families: tuple
    diag: np.ndarray
    conjugated: bool

    def _moves(self, v, transpose=False):
        """``diag * v`` plus, per family, ``out[:, rows] += rate * v[:,
        targets]`` on each row of the C-contiguous stack ``v``; the
        transpose swaps the two views."""
        out = self.diag * v
        lead = v.shape[:1], v.strides[:1]
        for row, target, shape, strides, rate in self.families:
            src, dst = (row, target) if transpose else (target, row)
            shape, strides = lead[0] + shape, lead[1] + strides
            view = np.ndarray(shape, float, out, dst, strides)
            view += rate * np.ndarray(shape, float, v, src, strides)
        return out

    def _apply_rows(self, P):
        """The operator applied to each row of the stack ``P``."""
        sites = range(self.ground.n_sites)
        v = np.array(P, dtype=float)
        if self.conjugated:
            sweep(v, sites)
        out = self._moves(v)
        if self.conjugated:
            sweep(out, sites, sign=-1.0)
        return out

    def adjoint_apply(self, k, z=1.0):
        """Adjoint image w.r.t. ``<<G, k>> = sum G k wt_z``, on one vector."""
        w = _same_ground(self, k).lp_weights(z)
        sites = range(self.ground.n_sites)
        v = (w * k.values)[None]
        if self.conjugated:
            sweep(v, sites, superset=True, sign=-1.0)
        out = self._moves(v, transpose=True)[0]
        if self.conjugated:
            sweep(out, sites, superset=True)
        return SetFunction._take(self.ground, out / w)

    def dense(self):
        """The matrix of the diagonal and the moves, without conjugation.

        A family's entries ``(row + s, target + s)``, over the free masks
        ``s``, lie on one strided diagonal of the flattened matrix.
        """
        _check_dense(self.ground, "dense move matrices")
        nsub = self.ground.n_subsets
        M = np.zeros((nsub, nsub))
        flat = M.reshape(-1)
        for row, target, shape, strides, rate in self.families:
            view = np.ndarray(shape, float, flat, row * nsub + target,
                              tuple(s * (nsub + 1) for s in strides))
            view += rate
        flat[::nsub + 1] += self.diag
        return M


def _move_rates(kernel, z):
    """``(x, avoid, stay, enter)`` over the ``(x, j)`` of :func:`_site_grid`,
    with ``avoid = omegas[j]``: the death rate ``d(x, A) wt(A)`` that sends
    ``gamma`` to ``(gamma \\ x) u A``, and the rate of the target ``gamma u
    A``, the birth ``b(x, A) wt(A)`` plus the death ``d(x, A u x) wt(A u x)``
    that re-occupies the vacated site, looked up among the columns."""
    w = kernel.ground.lp_weights(z)
    om = kernel.omegas
    x, j = _site_grid(kernel)
    avoid = om[j]
    enter = avoid | (1 << x)
    # d(x, A u x) is no column when |A| = k_trunc: the rate is 0 there
    col = np.minimum(np.searchsorted(om, enter), om.size - 1)
    d_enter = np.where(om[col] == enter, kernel.death[x, col], 0.0)
    return (x, avoid, kernel.death[x, j] * w[avoid],
            d_enter * w[enter] + kernel.birth[x, j] * w[avoid])


def hat_L_action(kernel, z=1.0):
    """Matrix-free ``L^ = K^-1 L K``: agrees with :func:`hat_L_closed`.

    The move families are those of :func:`_move_rates`: for each ``(x, A
    = omegas[j])`` of :func:`_site_grid`, ``gamma`` moves to ``(gamma \\ x)
    u A`` and to ``gamma u A``.  Each row loses its total move rate on the
    diagonal: minus the families applied to the constant vector, one
    strided subtraction per family.  An application costs O(n 2^n) for the
    two sweeps plus one strided add per family, about ``n |Omega_K|
    2^(n-1)`` terms in at most ``2 n |Omega_K|`` families.
    """
    ground = kernel.ground
    families = _families(ground, *_move_rates(kernel, z))
    diag = np.zeros(ground.n_subsets)
    for row, _, shape, strides, rate in families:
        view = np.ndarray(shape, float, diag, row, strides)
        view -= rate
    return MoveOperator(ground, families, diag, True)


def hat_L_continuum_action(kernel, z=1.0):
    """Collision-free (diffuse-limit) form of the conjugated generator.

    Implements ``(L^- G)(eta) = -D(eta) G(eta) - sum_x d(x) G(eta\\x) +
    sum_x sum_xi d1(x, xi) wt(xi) G((eta\\x) u xi)`` and the birth analogue
    ``(L^+ G)(eta) = sum_x sum_z b1(x, z) wt(z) G((eta\\x) u z) + sum_x
    sum_z b1(x, z) wt(z) G(eta u z) - sum_x b(x) G(eta\\x) - B(eta) G(eta)``
    with every ``xi``/``z`` disjoint from the corresponding argument
    remainder.  All coefficients depend on ``(x, xi)`` only, which makes the
    operator an exact derivation in the dual-sum sense; on an atomic ground
    it differs from the conjugation by the collision corrections.

    Both displacement terms contract the kernel through ``d1``/``b1``: with
    the raw birth rate in the first term the dual operator would couple
    second-order mass into the first-order stationarity equation, and the
    contact model would lose its closed first-moment equation.  The ``b1``
    contraction cancels that coupling exactly.  (The terms at ``xi = 0``
    and ``z = 0`` that reach ``eta \\ x`` cancel, since ``d1(x, 0) = d(x)``
    and ``b1(x, 0) = b(x)``, and are left out.)

    As move families: for each ``(x, xi = omegas[j])`` of :func:`_site_grid`,
    ``(d1 + b1)(x, xi) wt(xi)`` moves ``eta`` to ``(eta \\ x) u xi`` (``xi
    != 0``) and ``b1(x, xi) wt(xi)`` to ``eta u xi``; the diagonal is ``-(D
    + B)``.  :meth:`MoveOperator.dense` gives the matrix.
    """
    ground = kernel.ground
    w = ground.lp_weights(z)
    dk = derive_kernels(kernel, z)
    x, j = _site_grid(kernel)
    xi = kernel.omegas[j]
    birth = dk.b1[x, j] * w[xi]
    stay = np.where(xi == 0, 0.0, dk.d1[x, j] * w[xi] + birth)
    return MoveOperator(ground, _families(ground, x, xi, stay, birth),
                        -(dk.D + dk.B), False)


def hat_L_bruteforce(kernel, z=1.0):
    """Conjugate the generator through the lattice transform pair.

    Builds the matrix of ``G -> Kinv(L(KG))`` with every sweep along the
    row-index bits ``n .. 2n-1`` of the flattened matrix, whose inner runs
    are whole rows: the families of :func:`hat_L_action`, each with its row
    and target swapped, write ``L``'s transpose, a superset sweep (the zeta
    matrix, applied on the right) makes it ``(LK)^T``, a tiled in-place
    transpose gives ``LK``, and a signed sweep (the Moebius matrix, on the
    left) gives ``L^``.  Each entry sees the additions of a row-wise
    superset sweep of ``L`` in the same order, so the matrix does not
    depend on the sweep layout; :func:`_bruteforce_matrix` builds it.
    """
    return LatticeOperator._take(kernel.ground, _bruteforce_matrix(kernel, z))


def _bruteforce_matrix(kernel, z):
    """The writable matrix of :func:`hat_L_bruteforce`."""
    ground = kernel.ground
    op = hat_L_action(kernel, z)
    M = MoveOperator(ground, tuple((t, r, *f) for r, t, *f in op.families),
                     op.diag, False).dense()
    rows = range(ground.n_sites, 2 * ground.n_sites)
    sweep(M.reshape(-1), rows, superset=True)
    _transpose_in_place(M)
    sweep(M.reshape(-1), rows, sign=-1.0)
    return M


def hat_L_closed(kernel, z=1.0):
    """Exact closed form of the conjugated generator, entry by entry.

    Write a row as ``x u r`` and a column as ``X u c``, with ``r`` and ``c``
    subsets of the sites other than ``x`` and ``X`` either empty or ``{x}``.
    With the rates ``kd = stay`` and ``kb = enter`` of :func:`_move_rates`,
    ``k_0 = kd + kb`` and ``k_{x} = kb``, summing ``Kinv L K`` over its
    inner subsets leaves

        L^[x u r, X u c] = sum_x ( sum_{omega >= r ^ c} (-1)^{|omega n r|}
                                       k_X(x, omega)
                                   - [c <= r] (-1)^{|r \\ c|}
                                       sum_{omega n r = r \\ c} k_0(x, omega) )

    over ``omega`` in ``Omega_K``, the masks of at most ``k_trunc`` other
    sites, so every entry with ``|r ^ c| > k_trunc`` is zero.  Agrees with
    :func:`hat_L_bruteforce` to machine precision.  Sums :func:`_closed_terms`.
    """
    _check_dense(kernel.ground, "the closed-form conjugate")
    M = np.zeros((kernel.ground.n_subsets,) * 2)
    for cells, values in _closed_terms(kernel, z):
        np.add.at(M.reshape(-1), cells, values)
    return LatticeOperator._take(kernel.ground, M)


def _closed_terms(kernel, z):
    """:func:`hat_L_closed`'s terms: flat int32 indices into the matrix and
    the values added there, one pair per mover ``x`` and ``X``.

    Per mover, both sums are tables over ``(D, r)``, ``D`` in ``Omega_K``,
    for the cell ``(x u r, X u (r ^ D))``: ``k_X(omega) (-1)^{|omega n r|}``
    summed over the supersets ``omega`` of ``D`` in ``Omega_K``, less a
    ``bincount`` of ``k_0(omega) (-1)^{|omega n r|}`` at ``D = omega n r``.
    The sign and index tables, in the bits of the other sites, serve every
    mover.
    """
    ground = kernel.ground
    n, nsub = ground.n_sites, ground.n_subsets
    # r and omega over the n - 1 other sites, in n - 1 bits; a flat index
    # stays below 4^n <= 2^24, so int32 indices do
    r = np.arange(max(nsub >> 1, 1), dtype=np.int32)
    om = r[ground.subset_size[:r.size] <= kernel.k_trunc]
    at, own = np.full(r.size, -1, dtype=np.int32), np.arange(om.size)
    at[om] = own
    D, moved = om[:, None] & r, om[:, None] ^ r
    sign = np.where(ground.subset_size[D] & 1, -1.0, 1.0)
    cells = (at[D] * r.size + r).reshape(-1)
    parents = [at[om | 1 << b] for b in range(n - 1)]
    kd, kb = (t.reshape(n, om.size) for t in _move_rates(kernel, z)[2:])
    for x in range(n):
        xb = 1 << x
        k = np.stack([kd[x] + kb[x], kb[x]])[:, :, None] * sign
        second = np.bincount(cells, k[0].reshape(-1), sign.size)
        for up in parents:  # superset sums within Omega_K, site by site
            k[:, up > own] += k[:, up[up > own]]
        k -= second.reshape(sign.shape)
        # the cells (x u r, X u (r ^ D)), bit x put back into r and r ^ D
        flat = (r + (r & -xb) | xb) * nsub | moved + (moved & -xb)
        for X, table in zip((0, xb), k):
            yield (flat | X).reshape(-1), table.reshape(-1)


# ---------------------------------------------------------------------------
# adjoint and structural checks
# ---------------------------------------------------------------------------

def pairing(G, k, z=1.0):
    """``<<G, k>>`` against the weighted counting reference."""
    w = _same_ground(G, k).lp_weights(z)
    return float(np.dot(G.values * k.values, w))


def _padded(G, shifts):
    """Row ``r``: ``G(. u shifts[r])`` on the subsets disjoint from the
    shift, zero elsewhere; one index operation for the whole stack."""
    masks = np.arange(G.ground.n_subsets)
    shifts = np.asarray(shifts)[:, None]
    return np.where(masks & shifts, 0.0, G.values[masks | shifts])


def check_derivation(op, G, eta, xi):
    """Residual of the dual-sum identity at one disjoint pair.

    Compares ``(L^G)(eta u xi)`` with the sum of the operator applied to the
    two shifted functions ``G(. u xi)`` and ``G(. u eta)``, each restricted
    to subsets disjoint from its shift (see :func:`_padded`).  One
    application of the operator to the stack of ``G`` and the two shifts.
    """
    em = eta.mask if isinstance(eta, Configuration) else int(eta)
    xm = xi.mask if isinstance(xi, Configuration) else int(xi)
    if em & xm:
        raise ValidationError("derivation check needs disjoint arguments")
    LG, at_xi, at_eta = op._apply_rows(_padded(G, [0, xm, em]))
    return abs(float(LG[em | xm]) - float(at_xi[em] + at_eta[xm]))


def derivation_residual_max(op, G):
    """Exhaustive dual-sum residual over every disjoint pair on the lattice.

    Row ``s`` of the table ``T`` is the operator's image of the padded shift
    ``s`` (row 0 is ``L^G``), all rows in one application, so the residual
    at a disjoint pair ``(s, m)`` is ``T[0, s u m] - T[s, m] - T[m, s]``.
    The table holds 4^n floats, so the dense cap applies.
    """
    _check_dense(op.ground, "the exhaustive derivation check")
    masks = np.arange(op.ground.n_subsets)
    T = op._apply_rows(_padded(G, masks))
    s, m = np.nonzero((masks[:, None] & masks) == 0)
    return float(np.max(np.abs(T[0, s | m] - T[s, m] - T[m, s])))


def check_adjoint_leibniz(op, k1, k2, z=1.0):
    """Max-abs residual of ``L^*(k1 * k2) = (L^*k1) * k2 + k1 * (L^*k2)``."""
    def act(k):
        return op.adjoint_apply(k, z)
    lhs = act(conv_disjoint(k1, k2))
    rhs = conv_disjoint(act(k1), k2) + conv_disjoint(k1, act(k2))
    return float(np.max(np.abs(lhs.values - rhs.values)))


def invariance_residual(op, k, z=1.0):
    """Per-order max-abs of the stationarity defect ``L^* k``."""
    defect = np.abs(op.adjoint_apply(k, z).values)
    size = op.ground.subset_size
    return {int(s): float(defect[size == s].max())
            for s in range(op.ground.n_sites + 1)}


def convolution_closure_check(op, k1, k2, z=1.0):
    """Whether invariance of ``k1`` and ``k2`` propagates to ``k1 * k2``.

    Raises if either input fails the stationarity equation, naming it.
    """
    def defect(k):  # the largest over the orders, NaN if any is
        return np.max([*invariance_residual(op, k, z).values()])
    for name, k in (("first", k1), ("second", k2)):
        if not (worst := defect(k)) <= CLOSURE_IN_TOL:
            raise ValidationError(
                f"{name} functional is not invariant (defect {worst:.3e})")
    return bool(defect(conv_disjoint(k1, k2)) <= CLOSURE_OUT_TOL)


def normalized_dispersal(ground, seed_matrix):
    """Symmetric zero-diagonal dispersal with unit weighted row sums.

    Scales a positive symmetric pattern ``seed_matrix`` (diagonal ignored) as
    ``a = D S D`` with a positive diagonal ``D`` chosen so that
    ``sum_y a(x, y) m(y) = 1`` for every site; the symmetric scaling is found
    by a damped fixed-point iteration and refined to machine precision.
    """
    n = ground.n_sites
    if n < 2:
        raise ValidationError("dispersal needs at least two sites")
    S = np.asarray(seed_matrix, dtype=float)
    if S.shape != (n, n):
        raise ValidationError("seed matrix must be square over the sites")
    off = S[~np.eye(n, dtype=bool)]
    if not np.all((off > 0) & (off < math.inf)):
        raise ValidationError(
            "off-diagonal pattern entries must be positive and finite")
    S = 0.5 * (S + S.T)
    np.fill_diagonal(S, 0.0)
    m = np.asarray(ground.weights)
    d = np.ones(n)
    with np.errstate(all="ignore"):  # d overflows where no scaling exists
        for _ in range(10_000):
            row = d * (S @ (d * m))
            if not np.max(np.abs(row - 1.0)) >= 1e-15:  # or NaN
                break
            d = np.sqrt(d * d / row)
        a = d[:, None] * S * d[None, :]
        if not np.max(np.abs(a @ m - 1.0)) <= 1e-12:
            raise ValidationError("dispersal normalization did not converge")
    return a
