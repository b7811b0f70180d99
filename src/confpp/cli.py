"""Batch experiment runner: validates a JSON config, runs a task, emits a report.

Subcommands: ``run <config.json>``, ``list``, ``validate <config.json>``.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error.
Reports are byte-identical for identical configs except for the optional
timestamp field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import scipy

from . import __version__
from .core import (BoxWindow, DiscreteGround, SetFunction, json_dumps,
                   make_ground, power_function, split_streams)
from .errors import ConfppError, ValidationError

SCHEMA_VERSION = 1

TASKS = {
    "algebra-suite": {
        "summary": "exact transform/convolution identity suite on a discrete "
                   "ground",
        "parameters": {"trials": 25},
        "needs_ground": "discrete",
    },
    "identity:mecke": {
        "summary": "statistical check of the Poisson insertion identity",
        "parameters": {"z": 2.0},
        "needs_ground": "continuum",
    },
    "identity:gnz": {
        "summary": "statistical check of the conditional-intensity identity "
                   "for the Strauss model",
        "parameters": {"beta": 2.0, "g": 0.5, "R": 0.1},
        "needs_ground": "continuum",
    },
    "identity:superposition": {
        "summary": "count law and order-1/2 correlations of superposed "
                   "Poisson processes",
        "parameters": {"z1": 1.0, "z2": 1.0, "n_max": 8},
        "needs_ground": "continuum",
    },
    "identity:counts": {
        "summary": "empirical vs analytic count distribution for "
                   "(mixed) Poisson models",
        "parameters": {"model": "poisson", "z": 1.0, "theta": 1.0,
                       "n_max": 8},
        "needs_ground": "continuum",
    },
    "generator-suite": {
        "summary": "exact birth--death generator identity suite",
        "parameters": {"kernels": 5, "k_trunc": 2},
        "needs_ground": "discrete",
    },
    "process-report": {
        "summary": "correlation, positivity and uniqueness diagnostics for "
                   "lattice process models",
        "parameters": {"z": 0.8},
        "needs_ground": "discrete",
    },
}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def validate_config(doc):
    """Check an experiment config document; returns the normalized config."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    for key in ("name", "ground", "task", "seed"):
        if key not in doc:
            raise ValidationError(f"config missing required key {key!r}")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {doc.get('schema_version')!r}")
    task = doc["task"]
    if task not in TASKS:
        hints = ", ".join(sorted(TASKS))
        raise ValidationError(f"unknown task {task!r}; available: {hints}")
    if not isinstance(doc["seed"], int):
        raise ValidationError("seed must be an explicit integer")
    ground = make_ground(doc["ground"])
    need = TASKS[task]["needs_ground"]
    if need == "discrete" and not isinstance(ground, DiscreteGround):
        raise ValidationError(f"task {task} needs a discrete ground")
    if need == "continuum" and not isinstance(ground, BoxWindow):
        raise ValidationError(f"task {task} needs a continuum window")
    params = dict(TASKS[task]["parameters"])
    params.update(doc.get("parameters", {}))
    plan = {"replicas": 2000, "burn_in": 10_000, "thinning": 10,
            "proposal_points": 64}
    plan.update(doc.get("plan", {}))
    for key in ("replicas", "burn_in", "thinning", "proposal_points"):
        # bool is a subclass of int; json.load gives floats for NaN, 1e400
        if isinstance(plan[key], bool) or not isinstance(plan[key], int):
            raise ValidationError(f"plan {key} must be a JSON integer, got "
                                  f"{plan[key]!r}")
    return {"name": doc["name"], "ground": ground, "task": task,
            "seed": int(doc["seed"]), "parameters": params, "plan": plan,
            "output": doc.get("output")}


def _record(name, residual, tol):
    return {"check": name, "residual": float(residual),
            "tolerance": float(tol), "pass": bool(residual <= tol)}


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _run_algebra_suite(cfg):
    from .transforms import (conv_disjoint, conv_union, exp_vector,
                             k_inverse, k_transform, minlos_pairing)
    ground = cfg["ground"]
    trials = int(cfg["parameters"]["trials"])
    rng = split_streams(cfg["seed"], 1)[0]
    n = ground.n_subsets
    tol = 1e-10
    results = []

    worst = 0.0
    for _ in range(trials):
        G = SetFunction(ground, rng.standard_normal(n))
        worst = max(worst, float(np.max(np.abs(
            k_inverse(k_transform(G)).values - G.values))))
    results.append(_record("k_round_trip", worst, tol))

    # conv_union is computed through the transform, so its Fourier property
    # is checked against the closed form (a + b + ab)^|eta| instead: each
    # point of eta lies in the first operand only, the second only, or both.
    # The inverse transform's signed terms sum to (2 + a + b + ab)^|eta|;
    # a, b >= 1 keeps that within (5/3)^|eta| of the entry, so a relative
    # 1e-10 holds from rounding alone up to the site cap
    worst = 0.0
    for _ in range(trials):
        a, b = rng.uniform(1.0, 2.0, 2)
        lhs = conv_union(power_function(ground, a),
                         power_function(ground, b)).values
        rhs = power_function(ground, a + b + a * b).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(rhs)))
    results.append(_record("fourier_covering_conv", worst, tol))

    worst = 0.0
    for _ in range(trials):
        H = SetFunction(ground, rng.standard_normal(n))
        G1 = SetFunction(ground, rng.standard_normal(n))
        G2 = SetFunction(ground, rng.standard_normal(n))
        lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    results.append(_record("pairing_identity", worst, tol))

    b = conv_disjoint(power_function(ground, 0.5),
                      power_function(ground, 1.5))
    results.append(_record(
        "binomial_disjoint_conv",
        float(np.max(np.abs(b.values - power_function(ground, 2.0).values))),
        tol))

    worst = 0.0
    for _ in range(trials):
        f = rng.uniform(0.2, 2.0, ground.n_sites)
        g = rng.uniform(0.2, 2.0, ground.n_sites)
        lhs = (exp_vector(ground, f) * exp_vector(ground, g)).values
        rhs = exp_vector(ground, f * g).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(_record("exp_vector_multiplicative", worst, tol))

    worst = 0.0
    for _ in range(trials):
        G1 = SetFunction(ground, rng.standard_normal(n))
        G2 = SetFunction(ground, rng.standard_normal(n))
        worst = max(worst, float(np.max(np.abs(
            conv_disjoint(G1, G2).values - conv_disjoint(G2, G1).values))))
    results.append(_record("disjoint_conv_commutative", worst, tol))
    return results


def _run_generator_suite(cfg):
    from .generators import (contact_kernel, derive_kernels, hat_L_action,
                             hat_L_bruteforce, hat_L_closed,
                             hat_L_continuum_action, invariance_residual,
                             normalized_dispersal, pairing, random_kernel)
    ground = cfg["ground"]
    params = cfg["parameters"]
    rng = split_streams(cfg["seed"], 1)[0]
    n = ground.n_subsets
    results = []

    worst = 0.0
    diff = None  # allocated by the first subtraction, after the size checks
    for _ in range(int(params["kernels"])):
        ker = random_kernel(ground, int(params["k_trunc"]), rng)
        diff = np.subtract(hat_L_closed(ker).matrix,
                           hat_L_bruteforce(ker).matrix, out=diff)
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    results.append(_record("closed_vs_bruteforce", worst, 1e-10))

    ker = random_kernel(ground, int(params["k_trunc"]), rng)
    dk = derive_kernels(ker)
    results.append(_record(
        "first_order_death_consistency",
        float(np.max(np.abs(dk.d1[:, 0] - dk.d_bar))), 1e-12))

    # the matrix-free action: apply gathers over the moves, adjoint_apply
    # scatters over them, so the two sides go through different code
    op = hat_L_action(ker)
    G = SetFunction(ground, rng.standard_normal(n))
    k = SetFunction(ground, rng.standard_normal(n))
    lhs = pairing(op.apply(G), k)
    rhs = pairing(G, op.adjoint_apply(k))
    results.append(_record("adjoint_pairing",
                           abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0),
                           1e-10))

    nsite = ground.n_sites
    a = normalized_dispersal(ground,
                             rng.uniform(0.2, 1.0, (nsite, nsite)))
    ck = contact_kernel(ground, a)
    res = invariance_residual(hat_L_continuum_action(ck),
                              power_function(ground, 1.0))
    results.append(_record("contact_order1_stationarity", res[1], 1e-12))
    return results


def _make_plan(cfg):
    from .samplers import RunPlan
    p = cfg["plan"]
    return RunPlan(cfg["ground"], replicas=p["replicas"],
                   master_seed=cfg["seed"], burn_in=p["burn_in"],
                   thinning=p["thinning"],
                   proposal_points=p["proposal_points"])


def _run_identity(cfg):
    from .processes import MixedPoisson, Poisson, Superposition, \
        exponential_mixing
    from .samplers import (constant_h, count_distribution_check,
                           estimate_correlation, sample_batch, strauss_spec,
                           verify_gnz, verify_mecke)
    task = cfg["task"]
    params = cfg["parameters"]
    plan = _make_plan(cfg)
    window = cfg["ground"]
    if task == "identity:mecke":
        rep = verify_mecke(float(params["z"]), window, constant_h(1.0),
                           plan)
        return [dict(rep.to_json(), check="mecke_h1")]
    if task == "identity:gnz":
        spec = strauss_spec(float(params["beta"]), float(params["g"]),
                            float(params["R"]))
        rep = verify_gnz(spec, constant_h(1.0), plan)
        return [dict(rep.to_json(), check="gnz_strauss_h1")]
    if task == "identity:superposition":
        z1, z2 = float(params["z1"]), float(params["z2"])
        model = Superposition(Poisson(z1), Poisson(z2))
        rep = count_distribution_check(model, window,
                                       int(params["n_max"]), plan)
        rng = split_streams(cfg["seed"] + 1, 1)[0]
        samples = sample_batch(model, window, rng, plan.replicas)
        lo, hi = window.box[0]
        mid = 0.5 * (lo + hi)
        c1 = BoxWindow(((lo, mid),) + window.box[1:])
        c2 = BoxWindow(((mid, hi),) + window.box[1:])
        e1, s1 = estimate_correlation(samples, [c1], 1)
        e2, s2 = estimate_correlation(samples, [c1, c2], 2)
        zt = z1 + z2
        return [
            {"check": "superposition_counts", "tv": rep["tv"],
             "pass": rep["pass"], "overlap_events": rep["overlap_events"]},
            {"check": "superposition_k1", "estimate": e1, "se": s1,
             "target": zt, "overlap_events": samples.overlap_events,
             "pass": bool(abs(e1 - zt) <= 4 * max(s1, 1e-12))},
            {"check": "superposition_k2", "estimate": e2, "se": s2,
             "target": zt ** 2, "overlap_events": samples.overlap_events,
             "pass": bool(abs(e2 - zt ** 2) <= 4 * max(s2, 1e-12))},
        ]
    if task == "identity:counts":
        kind = params["model"]
        if kind == "poisson":
            model = Poisson(float(params["z"]))
        elif kind == "mixed-exponential":
            model = MixedPoisson(exponential_mixing(float(params["theta"])))
        else:
            raise ValidationError(f"unknown count model {kind!r}")
        rep = count_distribution_check(model, window,
                                       int(params["n_max"]), plan)
        return [{"check": f"counts_{kind}", "tv": rep["tv"],
                 "pass": rep["pass"], "per_n": rep["per_n"]}]
    raise ValidationError(f"unknown identity task {task}")


def _run_process_report(cfg):
    from .processes import (MixedPoisson, MixingDensity, Poisson,
                            correlation_functional, lenard_pd_check,
                            poisson_table, projection_density,
                            recover_correlation, to_discrete_table,
                            uniqueness_diagnostic)
    ground = cfg["ground"]
    z = float(cfg["parameters"]["z"])
    results = []
    table = poisson_table(ground, z)
    k = correlation_functional(table)
    mix = MixingDensity(np.array([0.5 * z, 1.5 * z]), np.array([0.5, 0.5]))
    km = correlation_functional(to_discrete_table(MixedPoisson(mix), ground))
    tol = 1e-10
    for name, corr in (("lenard_poisson_table", k), ("lenard_mixed_table", km)):
        ok, worst, witness = lenard_pd_check(corr, tol)
        results.append({"check": name, "worst_pairing": worst,
                        "tolerance": tol, "witness": list(witness.sites),
                        "pass": bool(ok)})
    rt = 0.0
    for zz in (0.5, 1.0, 2.0):
        back = recover_correlation(projection_density(k, zz), zz)
        rt = max(rt, float(np.max(np.abs(back.values - k.values))))
    results.append(_record("projection_round_trip", rt, 1e-10))
    rep = uniqueness_diagnostic(k, min(4, ground.n_sites))
    results.append({"check": "uniqueness_verdict", "verdict": rep.verdict,
                    "s_values": list(rep.s_values),
                    "pass": rep.verdict == "unique_by_K_C2"})
    return results


RUNNERS = {
    "algebra-suite": _run_algebra_suite,
    "generator-suite": _run_generator_suite,
    "identity:mecke": _run_identity,
    "identity:gnz": _run_identity,
    "identity:superposition": _run_identity,
    "identity:counts": _run_identity,
    "process-report": _run_process_report,
}


# ---------------------------------------------------------------------------
# report assembly and entry points
# ---------------------------------------------------------------------------

def _versions():
    return {"confpp": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_experiment(cfg, with_timestamp=True):
    """Execute a validated config; returns the report document."""
    results = RUNNERS[cfg["task"]](cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg["name"],
        "task": cfg["task"],
        "parameters": cfg["parameters"],
        "plan": cfg["plan"],
        "seed": cfg["seed"],
        "results": results,
        "pass": all(r.get("pass", True) for r in results),
        "versions": _versions(),
    }
    if with_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())
    return report


def _cmd_list(_args):
    print("available tasks:")
    for name in sorted(TASKS):
        info = TASKS[name]
        print(f"  {name:24s} {info['summary']}")
        defaults = ", ".join(f"{k}={v}" for k, v in
                             info["parameters"].items())
        print(f"  {'':24s} parameters: {defaults or '(none)'} "
              f"[ground: {info['needs_ground']}]")
    return 0


def _load_config(path, args):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if args.seed is not None:
        doc["seed"] = args.seed
    return validate_config(doc)


def _cmd_validate(args):
    _load_config(args.config, args)
    print("config is valid")
    return 0


def _cmd_run(args):
    cfg = _load_config(args.config, args)
    report = run_experiment(cfg, with_timestamp=not args.no_timestamp)
    text = json_dumps(report)
    out = args.out or cfg.get("output")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confpp", description="configuration-space experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None, help="report output path")
    p_run.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field (byte-stable reports)")
    p_run.set_defaults(func=_cmd_run)
    p_list = sub.add_parser("list", help="list available tasks")
    p_list.set_defaults(func=_cmd_list)
    p_val = sub.add_parser("validate", help="validate a config without "
                                            "running it")
    p_val.add_argument("config")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfppError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
