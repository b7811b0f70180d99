"""Birth-death generator calculus on the subset lattice.

A kernel pair ``d(x, omega)``, ``b(x, omega)`` defines the generator

    (LF)(gamma) = sum_{x in gamma} sum_omega d(x, omega) wt(omega)
                      [F((gamma \\ x) u omega) - F(gamma)]
                + sum_{x in gamma} sum_omega b(x, omega) wt(omega)
                      [F(gamma u omega) - F(gamma)]

with ``omega`` disjoint from the respective target (so a death move may
re-occupy the vacated site) and ``|omega| <= k_trunc``.  The module computes
the transformed operator ``L^ = K^-1 L K`` three ways:

* :func:`hat_L_bruteforce` -- literal conjugation through the lattice sweeps;
* :func:`hat_L_closed` -- an exact closed-form summation that reproduces the
  conjugation entrywise.  On an atomic ground the closed form carries
  overlap-correction terms (signed covering-pair sums) that have no continuum
  counterpart: they are supported on moves where new points collide with the
  surviving configuration, a null event for diffuse intensity measures;
* :func:`hat_L_action` -- the conjugation applied to vectors.

:func:`hat_L_continuum_action` is the collision-free limit form built from
the derived kernels ``d(x)``, ``D(eta)``, ``d1(x, xi)`` (and birth analogues)
only.  It drops the atomic corrections; it is the unique member of the
family with configuration-independent coefficients and therefore the one
satisfying the derivation (dual-sum) identity exactly.

Both actions apply their operator, and its adjoint, to vectors without
building a matrix.  Each is a diagonal plus a table of move families, each
family one strided add between two sub-cube views of the bitmask index;
:meth:`MoveOperator.dense` writes the same families into a matrix, and
:func:`hat_L_bruteforce` conjugates that matrix.  ``L`` itself is
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

import numpy as np

from .core import Configuration, SetFunction, json_dumps
from .errors import CapacityError, GroundMismatchError, ValidationError
from .transforms import conv_disjoint, sweep

BRUTEFORCE_MAX_SITES = 12
KERNEL_MAX_SITES = 20
MAX_K_TRUNC = 3


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BirthDeathKernel:
    """Tabulated death/birth rates ``d(x, omega)``, ``b(x, omega)``.

    ``death`` and ``birth`` are ``(n_sites, 2**n_sites)`` arrays; entries for
    ``|omega| > k_trunc`` must vanish.
    """

    ground: object
    death: np.ndarray
    birth: np.ndarray
    k_trunc: int

    def __post_init__(self):
        n = self.ground.n_sites
        _check_kernel_size(n)
        shape = (n, self.ground.n_subsets)
        death = np.asarray(self.death, dtype=float)
        birth = np.asarray(self.birth, dtype=float)
        if death.shape != shape or birth.shape != shape:
            raise ValidationError(f"kernel tables must have shape {shape}")
        if not (0 <= self.k_trunc <= MAX_K_TRUNC) and self.k_trunc != n:
            raise ValidationError(
                f"k_trunc must lie in [0, {MAX_K_TRUNC}] "
                "(or equal the site count for full-range kernels)")
        if self.k_trunc == n and n > 8:
            raise CapacityError("full-range kernels limited to 8 sites")
        small = _omega_list(self.ground, self.k_trunc)
        for name, tab in (("death", death), ("birth", birth)):
            if not np.all(np.isfinite(tab)):
                raise ValidationError(f"{name} table has non-finite entries")
            if np.any(tab < 0):
                raise ValidationError(f"{name} table has negative entries")
            if np.count_nonzero(tab[:, small]) != np.count_nonzero(tab):
                raise ValidationError(
                    f"{name} entries beyond |omega| <= {self.k_trunc} must vanish")
        death.setflags(write=False)
        birth.setflags(write=False)
        object.__setattr__(self, "death", death)
        object.__setattr__(self, "birth", birth)

    def to_json(self):
        entries = {"death": [], "birth": []}
        for name, tab in (("death", self.death), ("birth", self.birth)):
            for x in range(self.ground.n_sites):
                for omega in np.nonzero(tab[x])[0]:
                    entries[name].append({
                        "x": int(x),
                        "omega": list(Configuration(self.ground,
                                                    int(omega)).sites),
                        "value": float(tab[x, omega]),
                    })
        return {"schema_version": 1, "k_trunc": int(self.k_trunc), **entries}

    def dumps(self):
        return json_dumps(self.to_json())


def _check_kernel_size(n):
    if n > KERNEL_MAX_SITES:
        raise CapacityError(f"kernels limited to {KERNEL_MAX_SITES} sites")


def _zero_tables(ground):
    """Zero death and birth tables, after the size check."""
    _check_kernel_size(ground.n_sites)
    shape = (ground.n_sites, ground.n_subsets)
    return np.zeros(shape), np.zeros(shape)


def kernel_from_entries(ground, death_entries, birth_entries, k_trunc):
    """Build a kernel from sparse ``{"x": i, "omega": [...], "value": v}`` rows."""
    n = ground.n_sites
    death, birth = _zero_tables(ground)
    for tab, entries in ((death, death_entries), (birth, birth_entries)):
        for e in entries:
            x = int(e["x"])
            if not 0 <= x < n:
                raise ValidationError(f"site index {x} out of range")
            mask = 0
            for s in e["omega"]:
                bit = 1 << int(s)
                if mask & bit:
                    raise ValidationError("duplicate site in omega")
                mask |= bit
            tab[x, mask] += float(e["value"])
    return BirthDeathKernel(ground, death, birth, k_trunc)


def random_kernel(ground, k_trunc, rng):
    """Random truncated kernel with sparse rates in ``[0.1, 1)``.

    For each site ``x`` and each ``omega`` with ``|omega| <= k_trunc``, in
    mask order, a death rate is drawn with probability 1/2 and then, when
    ``x`` is not in ``omega``, a birth rate likewise; the draw order fixes
    the kernel for a given generator state.
    """
    death, birth = _zero_tables(ground)
    omegas = _omega_list(ground, k_trunc).tolist()
    for x in range(ground.n_sites):
        for omega in omegas:
            if rng.random() < 0.5:
                death[x, omega] = rng.uniform(0.1, 1.0)
            if not omega >> x & 1 and rng.random() < 0.5:
                birth[x, omega] = rng.uniform(0.1, 1.0)
    return BirthDeathKernel(ground, death, birth, k_trunc)


def kernel_from_json(ground, data):
    return kernel_from_entries(ground, data.get("death", ()),
                               data.get("birth", ()), int(data["k_trunc"]))


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
    death, birth = _zero_tables(ground)
    death[:, 0] = 1.0
    birth[:, 1 << np.arange(n)] = a
    return BirthDeathKernel(ground, death, birth, k_trunc=1)


@dataclass(frozen=True)
class DerivedKernels:
    """First-moment contractions of a birth-death kernel.

    ``d_bar[x] = sum_omega d(x, omega) wt(omega)``; ``D[eta] = sum_{x in eta}
    d_bar[x]``; ``d1[x, xi] = sum_{omega n xi = 0} d(x, omega u xi) wt(omega)``
    (so ``d1[x, 0] = d_bar[x]``); likewise for birth.
    """

    d_bar: np.ndarray
    D: np.ndarray
    d1: np.ndarray
    b_bar: np.ndarray
    B: np.ndarray
    b1: np.ndarray


def derive_kernels(kernel, z=1.0):
    ground = kernel.ground
    n = ground.n_sites
    w = ground.lp_weights(z)
    out = {}
    for name, tab in (("d", kernel.death), ("b", kernel.birth)):
        weighted = tab * w[np.newaxis, :]
        bar = weighted.sum(axis=1)
        # superset sums give wt(xi) * k1(x, xi), every row in one sweep
        sweep(weighted, range(n), superset=True)
        weighted /= w
        out[name] = (bar, weighted)
    d_bar, d1 = out["d"]
    b_bar, b1 = out["b"]
    # D(eta) = sum_{x in eta} d_bar(x): the zeta sweep of the singletons
    DB = np.zeros((2, ground.n_subsets))
    DB[:, 1 << np.arange(n)] = d_bar, b_bar
    D, B = sweep(DB, range(n))
    return DerivedKernels(d_bar=d_bar, D=D, d1=d1, b_bar=b_bar, B=B, b1=b1)


# ---------------------------------------------------------------------------
# move families
# ---------------------------------------------------------------------------

def _omega_list(ground, k_trunc):
    """Masks ``omega`` with ``|omega| <= k_trunc``, ascending: the only
    columns where a kernel table can be nonzero."""
    return np.nonzero(ground.subset_size <= k_trunc)[0]


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
    """``(x, A)`` over sites ``x`` and masks ``A`` with ``x not in A`` and
    ``|A| <= k_trunc``, flattened: the avoid sets of the move families."""
    ground = kernel.ground
    small = _omega_list(ground, kernel.k_trunc)
    x = np.repeat(np.arange(ground.n_sites), small.size)
    avoid = np.tile(small, ground.n_sites)
    keep = (avoid >> x) & 1 == 0
    return x[keep], avoid[keep]


def _check_dense(ground, what):
    if ground.n_sites > BRUTEFORCE_MAX_SITES:
        raise CapacityError(
            f"{what} limited to {BRUTEFORCE_MAX_SITES} sites "
            f"(a dense matrix of 4^n floats)")


def _pairing_weights(ground, z):
    if not 0 < z < math.inf:
        raise ValidationError("pairing activity must be positive and finite")
    return ground.lp_weights(z)


@dataclass(frozen=True)
class LatticeOperator:
    """A linear operator on set-function value vectors, subset-bitmask basis.

    A float array passed as ``matrix`` is not copied: the operator holds a
    read-only view of the caller's memory, so later writes through the
    caller's array (which stays writeable) change the operator too.
    """

    ground: object
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float).view()
        nsub = self.ground.n_subsets
        if mat.shape != (nsub, nsub):
            raise ValidationError(f"operator matrix must be {nsub}x{nsub}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("operator matrix has non-finite entries")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def apply(self, G):
        if G.ground != self.ground:
            raise GroundMismatchError("operand lives on a different ground")
        return SetFunction(self.ground, self.matrix @ G.values,
                           f"{self.label}[{G.label}]")

    def adjoint_apply(self, k, z=1.0):
        """Adjoint image w.r.t. ``<<G, k>> = sum G k wt_z``, on one vector."""
        if k.ground != self.ground:
            raise GroundMismatchError("operand lives on a different ground")
        w = _pairing_weights(self.ground, z)
        return SetFunction(self.ground, (self.matrix.T @ (w * k.values)) / w,
                           f"adj[{self.label}][{k.label}]")


@dataclass(frozen=True)
class MoveOperator:
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
    label: str = ""

    def _moves(self, v, transpose=False):
        """``diag * v`` plus, per family, ``out[rows] += rate * v[targets]``;
        the transpose swaps the two views."""
        out = self.diag * v
        for row, target, shape, strides, rate in self.families:
            src, dst = (row, target) if transpose else (target, row)
            view = np.ndarray(shape, float, out, dst, strides)
            view += rate * np.ndarray(shape, float, v, src, strides)
        return out

    def apply(self, G):
        if G.ground != self.ground:
            raise GroundMismatchError("operand lives on a different ground")
        sites = range(self.ground.n_sites)
        v = np.array(G.values, dtype=float)
        if self.conjugated:
            sweep(v, sites)
        out = self._moves(v)
        if self.conjugated:
            sweep(out, sites, sign=-1.0)
        return SetFunction(self.ground, out, f"{self.label}[{G.label}]")

    def adjoint_apply(self, k, z=1.0):
        """Adjoint image w.r.t. ``<<G, k>> = sum G k wt_z``, on one vector."""
        if k.ground != self.ground:
            raise GroundMismatchError("operand lives on a different ground")
        sites = range(self.ground.n_sites)
        w = _pairing_weights(self.ground, z)
        v = w * k.values
        if self.conjugated:
            sweep(v, sites, superset=True, sign=-1.0)
        out = self._moves(v, transpose=True)
        if self.conjugated:
            sweep(out, sites, superset=True)
        return SetFunction(self.ground, out / w,
                           f"adj[{self.label}][{k.label}]")

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


def hat_L_action(kernel, z=1.0):
    """Matrix-free ``L^ = K^-1 L K``: agrees with :func:`hat_L_closed`.

    For each ``(x, A)`` of :func:`_site_grid` the deaths ``d(x, A)`` send
    ``gamma`` to ``(gamma \\ x) u A``, and the target ``gamma u A`` collects
    the births ``b(x, A)`` with the deaths ``d(x, A u x)`` that re-occupy
    the vacated site.  Each row loses its total move rate on the diagonal:
    minus the families applied to the constant vector, one strided
    subtraction per family.  An application costs O(n 2^n) for the two
    sweeps plus one strided add per family, about ``n |Omega_K| 2^(n-1)``
    terms in at most ``2 n |Omega_K|`` families.
    """
    ground = kernel.ground
    w = ground.lp_weights(z)
    x, avoid = _site_grid(kernel)
    enter = avoid | (1 << x)
    families = _families(ground, x, avoid, kernel.death[x, avoid] * w[avoid],
                         kernel.death[x, enter] * w[enter]
                         + kernel.birth[x, avoid] * w[avoid])
    diag = np.zeros(ground.n_subsets)
    for row, _, shape, strides, rate in families:
        view = np.ndarray(shape, float, diag, row, strides)
        view -= rate
    return MoveOperator(ground, families, diag, True, "hatL_action")


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

    As move families: for each ``(x, xi)`` of :func:`_site_grid`, ``(d1 +
    b1)(x, xi) wt(xi)`` moves ``eta`` to ``(eta \\ x) u xi`` (``xi != 0``)
    and ``b1(x, xi) wt(xi)`` to ``eta u xi``; the diagonal is ``-(D + B)``.
    :meth:`MoveOperator.dense` gives the matrix.
    """
    ground = kernel.ground
    w = ground.lp_weights(z)
    dk = derive_kernels(kernel, z)
    x, xi = _site_grid(kernel)
    birth = dk.b1[x, xi] * w[xi]
    stay = np.where(xi == 0, 0.0, dk.d1[x, xi] * w[xi] + birth)
    return MoveOperator(ground, _families(ground, x, xi, stay, birth),
                        -(dk.D + dk.B), False, "hatL_continuum_action")


def hat_L_bruteforce(kernel, z=1.0):
    """Conjugate the generator through the lattice transform pair.

    Builds the matrix of ``G -> Kinv(L(KG))``: the zeta sweep maps basis
    columns up, the generator acts row-wise, the Moebius sweep maps back.
    ``L``'s matrix is the families of :func:`hat_L_action`, written dense.
    """
    ground = kernel.ground
    n = ground.n_sites
    M = hat_L_action(kernel, z).dense()
    # right-multiply by the zeta matrix: superset sums along each row
    sweep(M, range(n), superset=True)
    # left-multiply by the Moebius matrix: a signed sweep along the column
    # axis, which is the row-index bits n .. 2n-1 of the flattened matrix
    sweep(M.reshape(-1), range(n, 2 * n), sign=-1.0)
    return LatticeOperator(ground, M, "hatL_brute")


def _split_kernel(kernel, z):
    """Fold death moves that re-occupy the vacated site into a birth table.

    A death term with ``x in omega`` removes ``x`` and immediately restores
    it, so it acts as a pure birth of ``omega \\ x``; the remaining death
    moves never touch ``x``.  Returns ``(d_strict, b_eff)`` with both tables
    supported on ``x not in omega``.
    """
    ground = kernel.ground
    n = ground.n_sites
    w = ground.lp_weights(z)
    d_strict = np.array(kernel.death)
    b_eff = np.array(kernel.birth)
    masks = np.arange(ground.n_subsets)
    for x in range(n):
        xb = 1 << x
        has_x = (masks & xb) == xb
        lacks = masks[~has_x]
        b_eff[x, lacks] += kernel.death[x, lacks | xb] * w[xb]
        d_strict[x, has_x] = 0.0
        b_eff[x, has_x] = 0.0
    return d_strict, b_eff


def _s_tables(kernel, z):
    """S[x, tau] = sum_{omega >= tau, x not in omega} ker(x, omega) wt(omega)."""
    ground = kernel.ground
    n = ground.n_sites
    w = ground.lp_weights(z)
    d_strict, b_eff = _split_kernel(kernel, z)
    # both tables vanish beyond |omega| <= k_trunc, as the kernel's do
    return tuple(sweep(tab * w, range(n), superset=True)
                 for tab in (d_strict, b_eff))


def hat_L_closed(kernel, z=1.0):
    """Exact closed form of the conjugated generator.

    Beyond the collision-free terms of :func:`hat_L_continuum_action`, an
    atomic ground contributes signed covering-pair corrections: for each
    mover ``x`` and each nonempty collision set ``zeta``, every ordered pair
    ``(a, b)`` covering ``(alpha \\ x) \\ zeta`` adds
    ``(-1)^{|zeta n (alpha\\x)|} (-1)^{|a|} S_x(zeta u a)`` at the column
    ``b u zeta`` (death) and at ``b u zeta`` and ``b u zeta u {x}`` (birth),
    where ``S_x(tau)`` sums the kernel over supersets of ``tau`` avoiding
    ``x``.  The death part carries one extra covering-pair layer at
    ``zeta = 0`` replacing the diagonal terms.  Agrees with
    :func:`hat_L_bruteforce` to machine precision.

    For a term ``(zeta, a)`` the pairs are indexed by ``m = b u (zeta n
    alpha)``, which runs over every subset of the other sites: the row is
    ``m u a u {x}``, the column ``m u zeta`` (``u {x}``) and the sign
    ``(-1)^{|m n zeta|}``.  So each mover's triples are one broadcast of the
    terms against those subsets, scattered with one ``np.add.at``.
    """
    ground = kernel.ground
    _check_dense(ground, "the closed-form conjugate")
    n, nsub = ground.n_sites, ground.n_subsets
    Sd, Sb = _s_tables(kernel, z)
    size = ground.subset_size
    parity = np.where(size & 1, -1.0, 1.0)
    M = np.zeros((nsub, nsub))
    masks = np.arange(nsub)
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
        flat = ((A | xb)[:, None] | others) * nsub
        flat += (Z | X)[:, None] | others
        np.add.at(M.reshape(-1), flat.reshape(-1),
                  (C[:, None] * parity[Z[:, None] & others]).reshape(-1))
    return LatticeOperator(ground, M, "hatL_closed")


# ---------------------------------------------------------------------------
# adjoint and structural checks
# ---------------------------------------------------------------------------

def adjoint_hat_L(op, z=1.0):
    """Adjoint w.r.t. ``<<G, k>> = sum_eta G(eta) k(eta) wt_z(eta)``.

    The dense matrix; the checks below use ``op.adjoint_apply`` instead and
    never build it.
    """
    w = _pairing_weights(op.ground, z)
    mat = (op.matrix * w[:, np.newaxis]).T / w[:, np.newaxis]
    return LatticeOperator(op.ground, mat, f"adj[{op.label}]")


def pairing(G, k, z=1.0):
    """``<<G, k>>`` against the weighted counting reference."""
    if not G.same_ground(k):
        raise GroundMismatchError("pairing operands on different grounds")
    w = G.ground.lp_weights(z)
    return float(np.dot(G.values * k.values, w))


def _shifted_image(op, G, shift):
    """``L^`` applied to ``G(. u shift)`` zero-padded off the subsets
    disjoint from ``shift``; read it on those subsets only.

    There it equals ``M[free, free] @ G[free u shift]`` for a matrix ``M``,
    because the padded vector vanishes off ``free``.
    """
    masks = np.arange(op.ground.n_subsets)
    padded = np.where(masks & shift, 0.0, G.values[masks | shift])
    return op.apply(SetFunction(op.ground, padded)).values


def check_derivation(op, G, eta, xi):
    """Residual of the dual-sum identity at one disjoint pair.

    Compares ``(L^G)(eta u xi)`` with the sum of the operator applied to the
    two shifted functions ``G(. u xi)`` and ``G(. u eta)``, each restricted
    to subsets disjoint from its shift.  Three applications of the operator.
    """
    em = eta.mask if isinstance(eta, Configuration) else int(eta)
    xm = xi.mask if isinstance(xi, Configuration) else int(xi)
    if em & xm:
        raise ValidationError("derivation check needs disjoint arguments")
    lhs = float(op.apply(G).values[em | xm])
    rhs = float(_shifted_image(op, G, xm)[em] + _shifted_image(op, G, em)[xm])
    return abs(lhs - rhs)


def derivation_residual_max(op, G):
    """Exhaustive dual-sum residual over every disjoint pair on the lattice.

    Row ``s`` of the table ``T`` is the shifted image of shift ``s``, so the
    residual at a disjoint pair ``(s, m)`` is ``(L^G)(s u m) - T[s, m] -
    T[m, s]``.  The table holds 4^n floats, so the dense cap applies.
    """
    _check_dense(op.ground, "the exhaustive derivation check")
    LG = op.apply(G).values
    nsub = op.ground.n_subsets
    T = np.zeros((nsub, nsub))
    for shift in range(nsub):
        T[shift] = _shifted_image(op, G, shift)
    masks = np.arange(nsub)
    s, m = np.nonzero((masks[:, None] & masks) == 0)
    return float(np.max(np.abs(LG[s | m] - T[s, m] - T[m, s])))


def check_adjoint_leibniz(op, k1, k2, z=1.0):
    """Max-abs residual of ``L^*(k1 * k2) = (L^*k1) * k2 + k1 * (L^*k2)``."""
    if not k1.same_ground(k2):
        raise GroundMismatchError("functionals on different grounds")
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


def convolution_closure_check(op, k1, k2, z=1.0, tol=1e-10, out_tol=1e-9):
    """Whether invariance of ``k1`` and ``k2`` propagates to ``k1 * k2``.

    Raises if either input fails the stationarity equation, naming it.
    """
    for name, k in (("first", k1), ("second", k2)):
        worst = max(invariance_residual(op, k, z).values())
        if worst > tol:
            raise ValidationError(
                f"{name} functional is not invariant (defect {worst:.3e})")
    prod = conv_disjoint(k1, k2)
    return max(invariance_residual(op, prod, z).values()) <= out_tol


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
    for _ in range(10_000):
        row = d * (S @ (d * m))
        if np.max(np.abs(row - 1.0)) < 1e-15:
            break
        d = np.sqrt(d * d / row)
    a = d[:, None] * S * d[None, :]
    if np.max(np.abs(a @ m - 1.0)) > 1e-12:
        raise ValidationError("dispersal normalization did not converge")
    return a
