"""Correctness checks with references that do not go through the code under test.

Exact checks compare against closed forms, or against brute enumerations
written here for random tables at n <= 10.  A residual passes when it is at
most ``EXACT_TOL`` times the operands' scale.  Statistical checks use the CLI
report's own pass flags plus bounds that hold for every seed (dominance by a
Poisson process) or at five standard errors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EXACT_TOL = 1e-10
STAT_SIGMAS = 5.0


class Recorder:
    """Collects check outcomes; ``failed`` counts the ones that did not pass."""

    def __init__(self):
        self.records = []

    def add(self, name, residual, tol, layer=None, scale=None):
        residual = float(residual)
        ok = math.isfinite(residual) and residual <= tol
        self.records.append({"check": name, "residual": residual,
                             "tolerance": float(tol), "pass": ok,
                             "layer": layer, "scale": scale})

    def exact(self, name, layer, got, want, scale=None):
        """``max |got - want| <= EXACT_TOL * scale``; scale defaults to max |want|."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.flag(name, False)
            return
        if scale is None:
            scale = float(np.max(np.abs(want)))
        scale = max(float(scale), 1e-300)
        self.add(name, np.max(np.abs(got - want)), EXACT_TOL * scale, layer,
                 scale)

    def flag(self, name, ok):
        self.add(name, 0.0 if ok else 1.0, 0.0)

    def reports(self, reports, expected):
        """Every CLI result's pass flag, and the expected checks are present."""
        for rep in reports:
            names = {r.get("check") for r in rep["results"]}
            want = expected[rep["task"]]
            self.flag(f"{rep['name']}:checks_present", want <= names)
            for r in rep["results"]:
                self.flag(f"{rep['name']}:{r['check']}",
                          bool(r.get("pass", True)))
            self.flag(f"{rep['name']}:report_pass",
                      rep["pass"] == all(r.get("pass", True)
                                         for r in rep["results"]))

    def tolerances(self, reports, tols):
        """Re-judge residuals against the tolerances fixed here."""
        for rep in reports:
            for r in rep["results"]:
                tol = tols.get(r["check"])
                if tol is not None:
                    self.add(f"{rep['name']}:{r['check']}:fixed_tol",
                             r["residual"], tol)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(not r["pass"] for r in self.records)

    def max_rel_err(self, layer):
        rel = [r["residual"] / r["scale"] for r in self.records
               if r["layer"] == layer and r["scale"]]
        return max(rel) if rel else 0.0


# ---------------------------------------------------------------------------
# brute references on small lattices
# ---------------------------------------------------------------------------

def _sizes(n):
    return np.array([bin(m).count("1") for m in range(1 << n)])


def _power(n, base):
    return float(base) ** _sizes(n)


def _product_vector(off, on):
    """``prod_i (on_i if i in eta else off_i)`` over every bitmask eta.

    Site 0 is the low bit.
    """
    vals = np.ones(1)
    for f0, f1 in zip(off, on):
        vals = np.concatenate([vals * f0, vals * f1])
    return vals


def subset_sums(values, n):
    masks = np.arange(1 << n)
    return np.array([values[(masks & ~g) == 0].sum() for g in masks])


def moebius(values, n):
    masks = np.arange(1 << n)
    size = _sizes(n)
    out = np.empty(1 << n)
    for g in masks:
        sub = (masks & ~g) == 0
        sign = np.where((size[g] - size[sub]) & 1, -1.0, 1.0)
        out[g] = float(np.dot(sign, values[sub]))
    return out


def disjoint_product(v1, v2, n):
    """``sum_{a n b = 0, a u b = eta} v1(a) v2(b)``."""
    masks = np.arange(1 << n)
    out = np.zeros(1 << n)
    for a in masks:
        free = masks[(masks & a) == 0]
        out += np.bincount(free | a, weights=v1[a] * v2[free],
                           minlength=1 << n)
    return out


def covering_product(v1, v2, n):
    """``sum_{a u b = eta} v1(a) v2(b)``."""
    masks = np.arange(1 << n)
    out = np.zeros(1 << n)
    for a in masks:
        out += np.bincount(masks | a, weights=v1[a] * v2, minlength=1 << n)
    return out


def with_scale(brute, *arrays):
    """``brute(*arrays)`` and the largest entry of ``brute(*|arrays|)``.

    The second is the sum of the absolute values of the terms, the scale
    that rounding in an alternating sum is relative to.
    """
    return brute(*arrays), float(np.max(brute(*map(np.abs, arrays))))


def _projection(values, ground, z):
    """``N_z sum_{eta n g = 0} (-1)^|eta| v(g u eta) wt_z(eta)`` at every g."""
    n = ground.n_sites
    masks = np.arange(1 << n)
    sign = np.where(_sizes(n) & 1, -1.0, 1.0)
    w = _weights(ground, z)
    norm = float(np.prod(1.0 + z * np.asarray(ground.weights)))
    return np.array([norm * float(np.dot((sign * w)[free], values[g | free]))
                     for g in masks for free in [masks[(masks & g) == 0]]])


def _recovery(values, ground, z):
    """``sum_{eta n g = 0} v(g u eta) wt_z(eta) / N_z`` at every g."""
    n = ground.n_sites
    masks = np.arange(1 << n)
    w = _weights(ground, z)
    norm = float(np.prod(1.0 + z * np.asarray(ground.weights)))
    return np.array([float(np.dot(w[free], values[g | free])) / norm
                     for g in masks for free in [masks[(masks & g) == 0]]])


def _weights(ground, z):
    m = np.asarray(ground.weights)
    return _product_vector(np.ones_like(m), z * m)


# ---------------------------------------------------------------------------
# lattice workload
# ---------------------------------------------------------------------------

def _spot_subset_sums(rec, table, transformed):
    """K at n=22 on a fixed sample of masks, each a direct subset sum."""
    n = table.ground.n_sites
    masks = np.arange(1 << n)
    full = (1 << n) - 1
    sample = [0, full] + [int(m) for m in
                          np.random.default_rng(0).integers(0, full, 14)]
    worst, scale = 0.0, 0.0
    for g in sample:
        sub = table.values[(masks & ~g) == 0]
        worst = max(worst, abs(float(transformed.values[g]) - float(sub.sum())))
        scale = max(scale, float(np.abs(sub).sum()))
    rec.add("k_transform_n22_spot", worst, EXACT_TOL * scale, "transforms",
            scale)


def check_lattice(rec, x, out):
    t22 = x["table22"]
    _spot_subset_sums(rec, t22, out["k22"])
    rec.exact("k_round_trip_n22", "transforms", out["kinv22"].values,
              t22.values, np.max(np.abs(out["k22"].values)))

    a, b, c = x["bases"]
    g14 = x["power14"][0].ground
    n14 = g14.n_sites
    rec.exact("conv_disjoint_n14_closed_form", "transforms",
              out["disjoint14"].values, _power(n14, a + b))
    rec.exact("conv_union_n14_closed_form", "transforms",
              out["union14"].values, _power(n14, a + b + a * b))
    m14 = np.asarray(g14.weights)
    pairing = float(np.prod(1.0 + c * (a + b) * m14))
    lhs, rhs = out["pairing14"]
    rec.exact("minlos_pairing_lhs_closed_form", "transforms", lhs, pairing)
    rec.exact("minlos_pairing_rhs_closed_form", "transforms", rhs, pairing)

    k14 = _power(n14, c)
    for z, (density, back) in zip(x["z_grid"], out["projection14"]):
        # N_z c^|g| prod_{i not in g} (1 - c z m_i); the terms' absolute
        # values sum to the same product with 1 + c z m_i
        norm = float(np.prod(1.0 + z * m14))
        rec.exact(f"projection_density_n14_z{z}_closed_form", "processes",
                  density.values,
                  norm * _product_vector(1.0 - c * z * m14, np.full(n14, c)),
                  norm * np.max(_product_vector(1.0 + c * z * m14,
                                                np.full(n14, c))))
        rec.exact(f"projection_round_trip_n14_z{z}", "processes",
                  back.values, k14)

    mu = out["measures12"]
    g12 = x["ground12"]
    m12 = np.asarray(g12.weights)
    z1, z2 = x["intensities"]
    q1 = z1 * m12 / (1.0 + z1 * m12)
    q2 = z2 * m12 / (1.0 + z2 * m12)
    occupied = 1.0 - (1.0 - q1) * (1.0 - q2)
    total = _product_vector(1.0 - occupied, occupied)
    disjoint = _product_vector(1.0 - occupied,
                               q1 * (1.0 - q2) + (1.0 - q1) * q2)
    rec.exact("convolve_measures_n12_total", "processes", mu.probs, total)
    rec.exact("convolve_measures_n12_overlap", "processes",
              mu.overlap_probs, total - disjoint, np.max(total))
    rec.exact("superposition_correlation_n12", "processes",
              out["superposition12"].values, _power(g12.n_sites, z1 + z2))

    r1, r2, r3 = x["random10"]
    n10 = r1.ground.n_sites
    ksum = functools.partial(subset_sums, n=n10)
    want, scale = with_scale(ksum, r1.values)
    rec.exact("k_transform_n10_brute", "transforms", out["k10"].values,
              want, scale)
    rec.exact("k_inverse_n10_brute", "transforms", out["kinv10"].values,
              moebius(r1.values, n10), scale)
    rec.exact("k_transform_power_n10_closed_form", "transforms",
              out["kpower10"].values, _power(n10, 1.0 + c))
    rec.exact("conv_disjoint_n10_brute", "transforms",
              out["disjoint10"].values,
              *with_scale(functools.partial(disjoint_product, n=n10),
                          r1.values, r2.values))
    rec.exact("conv_union_n10_brute", "transforms", out["union10"].values,
              *with_scale(functools.partial(covering_product, n=n10),
                          r1.values, r2.values))
    density, back = out["projection10"]
    rec.exact("projection_density_n10_brute", "processes", density.values,
              *with_scale(functools.partial(_projection, ground=r3.ground,
                                            z=1.0), r3.values))
    rec.exact("projection_round_trip_n10", "processes", back.values,
              r3.values, with_scale(functools.partial(
                  _recovery, ground=r3.ground, z=1.0), density.values)[1])

    def kk_brute(f0, f1, f2, f3):
        return np.outer(ksum(f0), ksum(f1)) + np.outer(ksum(f2), ksum(f3))
    want, scale = with_scale(kk_brute, *x["kk_factors"])
    rec.exact("kk_transform_n10_factorized", "two_type", out["kk10"].values,
              want, scale)
    rec.exact("kk_round_trip_n10", "two_type", out["kkinv10"].values,
              x["kk_in"].values, scale)

    union6 = functools.partial(covering_product,
                               n=x["star"][0].ground.n_sites)

    def star_brute(*factors):
        # rank-2 operands: star2(sum_i x_i (x) y_i, sum_j u_j (x) v_j)
        #   = sum_ij union(x_i, u_j) (x) union(y_i, v_j)
        left, right = factors[:4], factors[4:]
        return sum(np.outer(union6(left[i], right[j]),
                            union6(left[i + 1], right[j + 1]))
                   for i in (0, 2) for j in (0, 2))
    rec.exact("conv_star2_n6_factorized", "two_type", out["star6"].values,
              *with_scale(star_brute, *x["star_factors"][0],
                          *x["star_factors"][1]))


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _volume(box):
    return math.prod(hi - lo for lo, hi in box)


def check_gnz_bounds(rec, docs, reports):
    """Strauss with g <= 1 is dominated by Poisson(beta): r <= beta, E|g| <= beta vol."""
    for doc, rep in zip(docs, reports):
        bound = doc["parameters"]["beta"] * _volume(doc["ground"]["box"])
        r = rep["results"][0]
        rec.flag(f"{doc['name']}:rhs_le_beta_vol",
                 0.0 <= r["rhs"] <= bound * (1 + 1e-12))
        rec.flag(f"{doc['name']}:lhs_le_beta_vol", 0.0 <= r["lhs"] <= bound)
        rec.flag(f"{doc['name']}:n_effective_range",
                 1 <= r["n_effective"] <= doc["plan"]["replicas"])


def check_poisson(rec, x, out, z_direct, cell):
    docs = {doc["name"]: doc for doc in x["configs"]}
    for rep in out["reports"]:
        doc = docs[rep["name"]]
        vol = _volume(doc["ground"]["box"])
        res = {r["check"]: r for r in rep["results"]}
        if rep["task"] == "identity:mecke":
            # h = 1: every inserted point contributes 1, so rhs is z vol exactly
            r, z = res["mecke_h1"], doc["parameters"]["z"]
            rec.add(f"{rep['name']}:rhs_exact", abs(r["rhs"] - z * vol),
                    EXACT_TOL * z * vol)
            se = math.sqrt(z * vol / doc["plan"]["replicas"])
            rec.add(f"{rep['name']}:lhs_poisson_mean",
                    abs(r["lhs"] - z * vol), STAT_SIGMAS * se)
        elif rep["task"] == "identity:counts":
            theta = doc["parameters"]["theta"]
            worst = max(abs(p["analytic"] - theta / (1.0 + theta) ** (p["n"] + 1))
                        for p in res["counts_mixed-exponential"]["per_n"])
            rec.add(f"{rep['name']}:analytic_geometric", worst, 1e-4)
        elif rep["task"] == "identity:superposition":
            zt = doc["parameters"]["z1"] + doc["parameters"]["z2"]
            rec.flag(f"{rep['name']}:no_overlaps",
                     res["superposition_counts"]["overlap_events"] == 0)
            rec.flag(f"{rep['name']}:targets",
                     res["superposition_k1"]["target"] == zt
                     and res["superposition_k2"]["target"] == zt ** 2)
    rep = out["mecke_pair"]
    rec.flag("mecke_pair:pass", rep.passed)
    # E sum_{x in B} N_B(gamma \ x) = (z |B|)^2 for a Poisson process
    target = (z_direct * cell.volume) ** 2
    rec.add("mecke_pair:lhs_target", abs(rep.lhs_mean - target),
            STAT_SIGMAS * rep.lhs_se)
    rec.add("mecke_pair:rhs_target", abs(rep.rhs_mean - target),
            STAT_SIGMAS * rep.rhs_se)
