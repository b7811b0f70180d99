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

from . import __version__
from .core import (BoxWindow, DiscreteGround, SetFunction, json_dumps,
                   make_ground, power_function, split_streams)
from .errors import ConfppError, ValidationError
from .processes import MixedPoisson, Poisson, Superposition, exponential_mixing
from .samplers import (RunPlan, _count_report, constant_h,
                       count_distribution_check, estimate_correlation,
                       sample_batch, strauss_spec, verify_gnz, verify_mecke)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

# identity:counts models by name: each builds its model from the parameters
COUNT_MODELS = {
    "poisson": lambda p: Poisson(float(p["z"])),
    "mixed-exponential": lambda p: MixedPoisson(
        exponential_mixing(float(p["theta"]))),
}

_PARAMETER_TYPES = {int: ("integer", int), float: ("number", (int, float)),
                    str: ("string", str)}
# below these a suite runs no trial, kernel or count and would report a pass
_PARAMETER_FLOORS = {"trials": 1, "kernels": 1, "n_max": 0}


def _fields(doc, block, task):
    """The task's ``block`` defaults updated by the JSON object
    ``doc[block]``, if given: each key one of the defaults', each value of
    that default's JSON type."""
    defaults = TASKS[task][block]
    what = "parameter" if block == "parameters" else block
    given = doc.get(block, {})
    if not isinstance(given, dict):
        raise ValidationError(f"{block} must be a JSON object")
    for key, value in given.items():
        if key not in defaults:
            allowed = (", ".join(sorted(defaults))
                       or f"none, task {task} takes no {block}")
            raise ValidationError(f"unknown {what} key {key!r}; "
                                  f"allowed: {allowed}")
        name, kinds = _PARAMETER_TYPES[type(defaults[key])]
        # bool is a subclass of int; json.load gives floats for NaN, 1e400
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValidationError(f"{what} {key} must be a JSON {name}, "
                                  f"got {value!r}")
    return {**defaults, **given}


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
    if isinstance(doc["seed"], bool) or not isinstance(doc["seed"], int):
        raise ValidationError("seed must be an explicit integer")
    if not isinstance(doc["name"], str):
        raise ValidationError("name must be a string")
    if not isinstance(doc.get("output", ""), str):
        raise ValidationError("output must be a string path")
    ground = make_ground(doc["ground"])
    need = TASKS[task]["needs_ground"]
    if need == "discrete" and not isinstance(ground, DiscreteGround):
        raise ValidationError(f"task {task} needs a discrete ground")
    if need == "continuum" and not isinstance(ground, BoxWindow):
        raise ValidationError(f"task {task} needs a continuum window")
    params = _fields(doc, "parameters", task)
    for key, floor in _PARAMETER_FLOORS.items():
        if params.get(key, floor) < floor:
            raise ValidationError(f"parameter {key} must be at least {floor}, "
                                  f"got {params[key]!r}")
    if task == "identity:counts" and params["model"] not in COUNT_MODELS:
        raise ValidationError(f"unknown count model {params['model']!r}; "
                              f"available: {', '.join(sorted(COUNT_MODELS))}")
    cfg = {"name": doc["name"], "ground": ground, "task": task,
           "seed": doc["seed"], "parameters": params,
           "plan": _fields(doc, "plan", task), "output": doc.get("output")}
    if cfg["plan"]:
        _make_plan(cfg)  # RunPlan's floors, with its message
    return cfg


def _record(name, residual, tol):
    """The record of the largest residual given; a NaN fails the check."""
    residual = float(np.max(residual))
    return {"check": name, "residual": residual,
            "tolerance": float(tol), "pass": bool(residual <= tol)}


def _normal(ground, rng):
    """A set function of standard normal values."""
    return SetFunction._take(ground, rng.standard_normal(ground.n_subsets))


def _rel_err(got, want):
    """``max |got - want|`` relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _run_algebra_suite(cfg):
    from .transforms import (conv_disjoint, conv_union, exp_vector,
                             k_inverse, k_transform, minlos_pairing)
    ground = cfg["ground"]
    trials = cfg["parameters"]["trials"]
    rng = split_streams(cfg["seed"], 1)[0]
    tol = 1e-10
    results = []

    # every residual is relative to the largest entry compared (the larger
    # side for pairing_identity): entries, and their rounding, grow with n
    errs = []
    for _ in range(trials):
        G = _normal(ground, rng)
        errs.append(_rel_err(k_inverse(k_transform(G)).values, G.values))
    results.append(_record("k_round_trip", errs, tol))

    # conv_union is computed through the transform, so its Fourier property
    # is checked against the closed form (a + b + ab)^|eta| instead: each
    # point of eta lies in the first operand only, the second only, or both.
    # The inverse transform's signed terms sum to (2 + a + b + ab)^|eta|;
    # a, b >= 1 keeps that within (5/3)^|eta| of the entry, so a relative
    # 1e-10 holds from rounding alone up to the site cap
    errs = []
    for _ in range(trials):
        a, b = rng.uniform(1.0, 2.0, 2)
        lhs = conv_union(power_function(ground, a),
                         power_function(ground, b)).values
        rhs = power_function(ground, a + b + a * b).values
        errs.append(_rel_err(lhs, rhs))
    results.append(_record("fourier_covering_conv", errs, tol))

    errs = []
    for _ in range(trials):
        H, G1, G2 = (_normal(ground, rng) for _ in range(3))
        lhs, rhs = minlos_pairing(H, G1, G2, 1.0)
        errs.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    results.append(_record("pairing_identity", errs, tol))

    b = conv_disjoint(power_function(ground, 0.5), power_function(ground, 1.5))
    results.append(_record(
        "binomial_disjoint_conv",
        _rel_err(b.values, power_function(ground, 2.0).values), tol))

    errs = []
    for _ in range(trials):
        f = rng.uniform(0.2, 2.0, ground.n_sites)
        g = rng.uniform(0.2, 2.0, ground.n_sites)
        lhs = (exp_vector(ground, f) * exp_vector(ground, g)).values
        rhs = exp_vector(ground, f * g).values
        errs.append(_rel_err(lhs, rhs))
    results.append(_record("exp_vector_multiplicative", errs, tol))

    errs = []
    for _ in range(trials):
        G1, G2 = (_normal(ground, rng) for _ in range(2))
        errs.append(_rel_err(conv_disjoint(G1, G2).values,
                             conv_disjoint(G2, G1).values))
    results.append(_record("disjoint_conv_commutative", errs, tol))
    return results


def _fused_residual(kernel, z=1.0):
    """``max |hat_L_bruteforce - hat_L_closed|`` in one matrix, in place.

    ``max(M.max(), -M.min())`` reads the matrix twice and writes nothing;
    a NaN entry makes either reduction NaN, and ``np.maximum`` keeps it.
    """
    from .generators import _bruteforce_matrix, _closed_terms
    M = _bruteforce_matrix(kernel, z)
    for cells, values in _closed_terms(kernel, z):
        np.subtract.at(M.reshape(-1), cells, values)
    return float(np.maximum(M.max(), -M.min()))


def _run_generator_suite(cfg):
    from .generators import (contact_kernel, derive_kernels, hat_L_action,
                             hat_L_continuum_action, invariance_residual,
                             normalized_dispersal, pairing, random_kernel)
    ground = cfg["ground"]
    if ground.n_sites < 2:  # the contact check's dispersal; say so up front
        raise ValidationError("dispersal needs at least two sites")
    params = cfg["parameters"]
    rng = split_streams(cfg["seed"], 1)[0]
    results = []

    errs = [_fused_residual(random_kernel(ground, params["k_trunc"], rng))
            for _ in range(params["kernels"])]
    results.append(_record("closed_vs_bruteforce", errs, 1e-10))

    ker = random_kernel(ground, params["k_trunc"], rng)
    dk = derive_kernels(ker)
    results.append(_record("first_order_death_consistency",
                           np.abs(dk.d1[:, 0] - dk.d_bar), 1e-12))

    # the matrix-free action: apply adds each move family's target view into
    # its row view, adjoint_apply the reverse, so the two sides differ
    op = hat_L_action(ker)
    G, k = (_normal(ground, rng) for _ in range(2))
    lhs = pairing(op.apply(G), k)
    rhs = pairing(G, op.adjoint_apply(k))
    results.append(_record("adjoint_pairing",
                           abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0),
                           1e-10))

    nsite = ground.n_sites
    a = normalized_dispersal(ground, rng.uniform(0.2, 1.0, (nsite, nsite)))
    ck = contact_kernel(ground, a)
    res = invariance_residual(hat_L_continuum_action(ck),
                              power_function(ground, 1.0))
    results.append(_record("contact_order1_stationarity", res[1], 1e-12))
    return results


def _make_plan(cfg):
    return RunPlan(cfg["ground"], master_seed=cfg["seed"], **cfg["plan"])


def _run_mecke(cfg):
    rep = verify_mecke(float(cfg["parameters"]["z"]), cfg["ground"],
                       constant_h(1.0), _make_plan(cfg))
    return [dict(rep.to_json(), check="mecke_h1")]


def _run_gnz(cfg):
    params = cfg["parameters"]
    spec = strauss_spec(float(params["beta"]), float(params["g"]),
                        float(params["R"]))
    rep = verify_gnz(spec, constant_h(1.0), _make_plan(cfg))
    return [dict(rep.to_json(), check="gnz_strauss_h1")]


def _run_superposition(cfg):
    params = cfg["parameters"]
    plan = _make_plan(cfg)
    window = cfg["ground"]
    z1, z2 = float(params["z1"]), float(params["z2"])
    model = Superposition(Poisson(z1), Poisson(z2))
    # one draw, on count_distribution_check's stream, serves every record
    rng = split_streams(plan.master_seed, 1)[0]
    samples = sample_batch(model, window, rng, plan.replicas)
    rep = _count_report(model, window, params["n_max"], samples)
    lo, hi = window.box[0]
    mid = 0.5 * (lo + hi)
    c1 = BoxWindow(((lo, mid),) + window.box[1:])
    c2 = BoxWindow(((mid, hi),) + window.box[1:])
    e1, s1 = estimate_correlation(samples, [c1])
    e2, s2 = estimate_correlation(samples, [c1, c2])
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


def _run_counts(cfg):
    params = cfg["parameters"]
    kind = params["model"]
    rep = count_distribution_check(COUNT_MODELS[kind](params), cfg["ground"],
                                   params["n_max"], _make_plan(cfg))
    return [{"check": f"counts_{kind}", "tv": rep["tv"],
             "pass": rep["pass"], "per_n": rep["per_n"]}]


def _run_process_report(cfg):
    from .processes import (MixingDensity, correlation_functional,
                            lenard_pd_check, poisson_table, projection_density,
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
    rt = [np.abs(recover_correlation(projection_density(k, zz), zz).values
                 - k.values) for zz in (0.5, 1.0, 2.0)]
    results.append(_record("projection_round_trip", rt, 1e-10))
    rep = uniqueness_diagnostic(k, min(4, ground.n_sites))
    results.append({"check": "uniqueness_verdict", "verdict": rep.verdict,
                    "s_values": list(rep.s_values),
                    "pass": rep.verdict == "unique_by_K_C2"})
    return results


# each task's runner, its parameters and plan keys with their defaults
TASKS = {
    "algebra-suite": {
        "summary": "exact transform/convolution identity suite on a discrete "
                   "ground",
        "run": _run_algebra_suite,
        "parameters": {"trials": 25},
        "plan": {},
        "needs_ground": "discrete",
    },
    "identity:mecke": {
        "summary": "statistical check of the Poisson insertion identity",
        "run": _run_mecke,
        "parameters": {"z": 2.0},
        "plan": {"replicas": 2000, "proposal_points": 64},
        "needs_ground": "continuum",
    },
    "identity:gnz": {
        "summary": "statistical check of the conditional-intensity identity "
                   "for the Strauss model",
        "run": _run_gnz,
        "parameters": {"beta": 2.0, "g": 0.5, "R": 0.1},
        "plan": {"replicas": 2000, "burn_in": 10_000, "thinning": 10,
                 "proposal_points": 64},
        "needs_ground": "continuum",
    },
    "identity:superposition": {
        "summary": "count law and order-1/2 correlations of superposed "
                   "Poisson processes",
        "run": _run_superposition,
        "parameters": {"z1": 1.0, "z2": 1.0, "n_max": 8},
        "plan": {"replicas": 2000},
        "needs_ground": "continuum",
    },
    "identity:counts": {
        "summary": "empirical vs analytic count distribution for "
                   "(mixed) Poisson models",
        "run": _run_counts,
        "parameters": {"model": "poisson", "z": 1.0, "theta": 1.0,
                       "n_max": 8},
        "plan": {"replicas": 2000},
        "needs_ground": "continuum",
    },
    "generator-suite": {
        "summary": "exact birth--death generator identity suite",
        "run": _run_generator_suite,
        "parameters": {"kernels": 5, "k_trunc": 2},
        "plan": {},
        "needs_ground": "discrete",
    },
    "process-report": {
        "summary": "correlation, positivity and uniqueness diagnostics for "
                   "lattice process models",
        "run": _run_process_report,
        "parameters": {"z": 0.8},
        "plan": {},
        "needs_ground": "discrete",
    },
}


# ---------------------------------------------------------------------------
# report assembly and entry points
# ---------------------------------------------------------------------------

def _versions():
    return {"confpp": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__}


def run_experiment(cfg, with_timestamp=True):
    """Execute a validated config; returns the report document."""
    results = TASKS[cfg["task"]]["run"](cfg)
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
        print(f"  {name:24s} {info['summary']} "
              f"[ground: {info['needs_ground']}]")
        for block in ("parameters", "plan"):
            defaults = ", ".join(f"{k}={v}" for k, v in info[block].items())
            print(f"  {'':24s} {block}: {defaults or '(none)'}")
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
