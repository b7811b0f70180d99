"""The four benchmark workloads: seeded inputs, the timed body, the checks.

Each workload is three functions:

* ``build(seed)`` makes every input (grounds, tables, kernels, plans and
  experiment configs) from the seed.  This is the set-up that ``setup_s``
  times, together with importing ``confpp``.
* ``run(inputs)`` is the timed body.  It calls the program only through
  module attributes (``transforms.conv_disjoint(...)``), so the wrappers
  that the traced run installs on those attributes see every call.
* ``check(inputs, outputs)`` compares every output with a reference that
  does not go through the code under test; see ``checks.py``.

Where a CLI task covers the work, the body sends a JSON config through
``cli.validate_config`` and ``cli.run_experiment``: the config schema is the
stable contract, so the program's internals may change under it.
"""

from __future__ import annotations

import numpy as np

from confpp import cli, core, processes, samplers, transforms, two_type

import checks

UNIT_BOX = [[0.0, 1.0]]
UNIT_SQUARE = [[0.0, 1.0], [0.0, 1.0]]
# test_08's scalar h_pair counts the other points of a cell
CELL = core.BoxWindow(((0.25, 0.75),))


def _ground(rng, n):
    return core.DiscreteGround(tuple(rng.uniform(0.5, 1.5, n)))


def _config(name, ground, task, seed, parameters=None, plan=None):
    doc = {"name": name, "ground": ground, "task": task, "seed": int(seed)}
    if parameters is not None:
        doc["parameters"] = parameters
    if plan is not None:
        doc["plan"] = plan
    return doc


def _discrete(ground):
    return {"kind": "discrete", "weights": list(ground.weights)}


def _continuum(box):
    return {"kind": "continuum", "box": box}


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**31 - 1, k)]


def _run_configs(docs):
    reports = []
    for doc in docs:
        cfg = cli.validate_config(doc)
        reports.append(cli.run_experiment(cfg, with_timestamp=False))
    return reports


def run_configs_only(x):
    return {"reports": _run_configs(x["configs"])}


# ---------------------------------------------------------------------------
# lattice: exact transforms, convolutions, projections, two-type calculus
# ---------------------------------------------------------------------------

def build_lattice(seed):
    rng = np.random.default_rng([seed, 1])
    g22, g14, g12, g10, g6 = (_ground(rng, n) for n in (22, 14, 12, 10, 6))
    a, b = rng.uniform(0.5, 1.5, 2)
    # c z m <= 1 on the whole z grid keeps the alternating projection sums
    # free of cancellation, so their round trip is held to 1e-10 of k
    c = rng.uniform(0.15, 0.3)
    z1, z2 = rng.uniform(0.5, 1.5, 2)
    power = core.power_function

    def table(g):
        return core.SetFunction(g, rng.standard_normal(g.n_subsets))

    def pair_table(g):
        # a rank-2 pair table, so references can use single-type oracles
        factors = [rng.standard_normal(g.n_subsets) for _ in range(4)]
        vals = (np.outer(factors[0], factors[1])
                + np.outer(factors[2], factors[3]))
        return two_type.PairSetFunction(g, vals), factors

    star_left, star_left_f = pair_table(g6)
    star_right, star_right_f = pair_table(g6)
    kk_in, kk_in_f = pair_table(g10)
    return {
        "table22": table(g22),
        "power14": (power(g14, a), power(g14, b), power(g14, c)),
        "bases": (float(a), float(b), float(c)),
        "z_grid": (0.5, 1.0, 2.0),
        "measures": (processes.poisson_table(g12, z1),
                     processes.poisson_table(g12, z2)),
        "superposition": processes.Superposition(processes.Poisson(z1),
                                                 processes.Poisson(z2)),
        "intensities": (float(z1), float(z2)),
        "ground12": g12,
        "random10": (table(g10), table(g10), table(g10)),
        "power10": power(g10, c),
        "kk_in": kk_in, "kk_factors": kk_in_f,
        "star": (star_left, star_right), "star_factors": (star_left_f,
                                                          star_right_f),
        "configs": [_config("lattice-process-report", _discrete(g14),
                            "process-report", _seeds(rng, 1)[0],
                            {"z": 0.8})],
    }


def run_lattice(x):
    out = {}
    f22 = transforms.k_transform(x["table22"])
    out["k22"] = f22
    out["kinv22"] = transforms.k_inverse(f22)

    pa, pb, pc = x["power14"]
    out["disjoint14"] = transforms.conv_disjoint(pa, pb)
    out["union14"] = transforms.conv_union(pa, pb)
    out["pairing14"] = transforms.minlos_pairing(pc, pa, pb, 1.0)
    out["projection14"] = []
    for z in x["z_grid"]:
        density = processes.projection_density(pc, z)
        out["projection14"].append(
            (density, processes.recover_correlation(density, z)))

    out["measures12"] = processes.convolve_measures(*x["measures"])
    out["superposition12"] = processes.correlation_functional(
        x["superposition"], x["ground12"])

    r1, r2, r3 = x["random10"]
    out["k10"] = transforms.k_transform(r1)
    out["kinv10"] = transforms.k_inverse(r1)
    out["kpower10"] = transforms.k_transform(x["power10"])
    out["disjoint10"] = transforms.conv_disjoint(r1, r2)
    out["union10"] = transforms.conv_union(r1, r2)
    density = processes.projection_density(r3, 1.0)
    out["projection10"] = (density,
                           processes.recover_correlation(density, 1.0))

    kk = two_type.kk_transform(x["kk_in"])
    out["kk10"] = kk
    out["kkinv10"] = two_type.kk_inverse(kk)
    out["star6"] = two_type.conv_star2(*x["star"])

    out["reports"] = _run_configs(x["configs"])
    return out


def check_lattice(x, out):
    rec = checks.Recorder()
    checks.check_lattice(rec, x, out)
    rec.reports(out["reports"], {"process-report": {
        "lenard_poisson_table", "lenard_mixed_table",
        "projection_round_trip", "uniqueness_verdict"}})
    return rec


# ---------------------------------------------------------------------------
# generator: dense 2^n x 2^n birth--death operators
# ---------------------------------------------------------------------------

GENERATOR_LEGS = ((12, 1, 2), (10, 5, 3))  # (n, kernels, k_trunc)


def build_generator(seed):
    rng = np.random.default_rng([seed, 2])
    docs = []
    for (n, kernels, k_trunc), s in zip(GENERATOR_LEGS,
                                         _seeds(rng, len(GENERATOR_LEGS))):
        docs.append(_config(f"generator-n{n}", _discrete(_ground(rng, n)),
                            "generator-suite", s,
                            {"kernels": kernels, "k_trunc": k_trunc}))
    return {"configs": docs}


def check_generator(x, out):
    rec = checks.Recorder()
    rec.reports(out["reports"], {"generator-suite": {
        "closed_vs_bruteforce", "first_order_death_consistency",
        "adjoint_pairing", "contact_order1_stationarity"}})
    rec.tolerances(out["reports"], {
        "closed_vs_bruteforce": 1e-10, "first_order_death_consistency": 1e-12,
        "adjoint_pairing": 1e-10, "contact_order1_stationarity": 1e-12})
    return rec


# ---------------------------------------------------------------------------
# gibbs: Strauss birth--death chain plus the GNZ right-hand side
# ---------------------------------------------------------------------------

# (box, beta, g, R, replicas); burn-in 10 000 and thinning 10 on both legs
GIBBS_LEGS = ((UNIT_BOX, 2.0, 0.5, 0.1, 5000),
              (UNIT_SQUARE, 20.0, 0.3, 0.1, 1000))
GIBBS_SCHEDULE = {"burn_in": 10_000, "thinning": 10, "proposal_points": 64}


def build_gibbs(seed):
    rng = np.random.default_rng([seed, 3])
    docs = []
    for (box, beta, g, R, replicas), s in zip(GIBBS_LEGS,
                                               _seeds(rng, len(GIBBS_LEGS))):
        docs.append(_config(f"gibbs-{len(box)}d", _continuum(box),
                            "identity:gnz", s,
                            {"beta": beta, "g": g, "R": R},
                            dict(GIBBS_SCHEDULE, replicas=replicas)))
    return {"configs": docs}


def check_gibbs(x, out):
    rec = checks.Recorder()
    rec.reports(out["reports"], {"identity:gnz": {"gnz_strauss_h1"}})
    checks.check_gnz_bounds(rec, x["configs"], out["reports"])
    return rec


# ---------------------------------------------------------------------------
# poisson: direct samplers and verifiers with scalar h, no chain
# ---------------------------------------------------------------------------

def h_pair(gamma, x):
    """test_08's pair statistic: other points of the cell, for x in the cell."""
    if not CELL.contains(x):
        return 0.0
    return float(sum(1 for p in gamma.points if p != x and CELL.contains(p)))


MECKE_DIRECT = {"z": 2.0, "replicas": 3000}


def build_poisson(seed):
    rng = np.random.default_rng([seed, 4])
    s_mecke, s_direct, s_counts, s_super = _seeds(rng, 4)
    box = _continuum(UNIT_BOX)
    window = core.BoxWindow(((0.0, 1.0),))
    return {
        "configs": [
            _config("poisson-mecke", box, "identity:mecke", s_mecke,
                    {"z": 2.0}, {"replicas": 5000}),
            _config("poisson-counts", box, "identity:counts", s_counts,
                    {"model": "mixed-exponential", "theta": 1.0, "n_max": 8},
                    {"replicas": 20_000}),
            _config("poisson-superposition", box, "identity:superposition",
                    s_super, {"z1": 1.0, "z2": 1.0, "n_max": 8},
                    {"replicas": 20_000}),
        ],
        "window": window,
        "direct_plan": samplers.RunPlan(
            window, replicas=MECKE_DIRECT["replicas"], master_seed=s_direct),
    }


def run_poisson(x):
    out = {"reports": _run_configs(x["configs"])}
    out["mecke_pair"] = samplers.verify_mecke(
        MECKE_DIRECT["z"], x["window"], h_pair, x["direct_plan"])
    return out


def check_poisson(x, out):
    rec = checks.Recorder()
    rec.reports(out["reports"], {
        "identity:mecke": {"mecke_h1"},
        "identity:counts": {"counts_mixed-exponential"},
        "identity:superposition": {"superposition_counts",
                                   "superposition_k1", "superposition_k2"}})
    checks.check_poisson(rec, x, out, MECKE_DIRECT["z"], CELL)
    return rec


NOTES = {
    "lattice": "n=22 K round trip; n=14 conv_disjoint, conv_union, "
               "minlos_pairing, projection/recovery at z in {0.5, 1, 2}; "
               "n=12 convolve_measures, superposed correlation; n=10 random "
               "tables (K, K^-1, both convolutions, projection) and "
               "kk_transform/kk_inverse; n=6 conv_star2; process-report at "
               "n=14.  Every table is <= 32 MB and fits in the last-level "
               "cache, so the sweep legs are not bandwidth measurements.  "
               "The Fourier identity is checked here with a scaled tolerance "
               "instead of through algebra-suite, whose fourier_covering_conv "
               "check uses an absolute 1e-10 and fails from rounding alone "
               "at n >= 13.",
    "generator": "generator-suite at n=12 (kernels=1, k_trunc=2) and n=10 "
                 "(kernels=5, k_trunc=3): dense 2^n x 2^n operators.",
    "gibbs": "identity:gnz Strauss, burn-in 10000, thinning 10, 64 proposal "
             "points: 1-D unit box beta=2 g=0.5 R=0.1 with 5000 replicas; "
             "2-D unit square beta=20 g=0.3 R=0.1 with 1000 replicas.",
    "poisson": "identity:mecke z=2 h=1 with 5000 replicas; direct "
               "verify_mecke with scalar h_pair, z=2, 3000 replicas; "
               "identity:counts mixed-exponential and "
               "identity:superposition, 20000 replicas each.",
}

WORKLOADS = {
    "lattice": (build_lattice, run_lattice, check_lattice),
    "generator": (build_generator, run_configs_only, check_generator),
    "gibbs": (build_gibbs, run_configs_only, check_gibbs),
    "poisson": (build_poisson, run_poisson, check_poisson),
}
