"""One workload run in a fresh process: set up, time the body, check, report.

Started by ``run.py``, never by hand.  With ``--setup-only`` it builds the
inputs, prints the monotonic time at which they were ready and exits; the
parent turns that into ``setup_s``.  Otherwise it repeats the timed body
while the ``--seconds`` budget allows another repetition, checking the
outputs outside the timed region.  With ``--trace 1`` it times one untraced
and one traced repetition instead.  The last stdout line is a JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import signal
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.02
# about the probe's median on the box the benchmark was defined on (2-core
# Xeon under KVM, Python 3.11); it only sets the unit of the scaled times
PROBE_REF_S = 100e-6


def _probe_kernel():
    s = 0
    for i in range(1500):
        s += i * i
    return s


def probe_once():
    """Seconds for the fixed kernel, run warm (the first pass is discarded)."""
    _probe_kernel()
    t0 = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast this core runs now, while the body runs.

    Neighbours on a shared host slow the same code by up to 2x, in phases
    of seconds.  Every ``PROBE_EVERY_S`` a SIGALRM handler times a fixed
    pure-Python loop of the benchmark's own.  The body's wall time minus the
    handler's time, scaled by ``PROBE_REF_S / median probe``, is the body's
    time at the reference speed.  The handler runs between bytecodes of
    this thread, so no thread or process is added.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_once())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def reference_seconds(self, wall_s):
        body_s = wall_s - self.spent
        if not self.samples:
            return body_s
        return body_s * PROBE_REF_S / statistics.median(self.samples)


def speed_scale(seconds=0.1):
    """``PROBE_REF_S / median probe`` over a burst of back-to-back probes."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(probe_once())
    return PROBE_REF_S / statistics.median(samples)


def _fingerprint(obj, h):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            _fingerprint(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _fingerprint(v, h)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _fingerprint(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())


def fingerprint(out):
    h = hashlib.sha256()
    _fingerprint(out, h)
    return h.hexdigest()


def _timed(run, inputs):
    t0 = time.perf_counter()
    out = run(inputs)
    return time.perf_counter() - t0, out


def _results(out, check):
    return [(rep, r) for rep in out.get("reports", ())
            for r in rep["results"] if r.get("check") == check]


def derived_metrics(tracer, rec, inputs, out):
    """Per-layer values that combine span totals with the workload's outputs."""
    gnz = _results(out, "gnz_strauss_h1")
    steps = sum(rep["plan"]["burn_in"]
                + rep["plan"]["replicas"] * max(rep["plan"]["thinning"], 1)
                for rep, _ in gnz)
    n_eff = sum(r["n_effective"] for _, r in gnz)
    gnz_s = tracer.value("samplers.verify_gnz", "incl")
    mecke_replicas = sum(rep["plan"]["replicas"]
                         for rep in out.get("reports", ())
                         if rep["task"] == "identity:mecke")
    if "mecke_pair" in out:
        mecke_replicas += inputs["direct_plan"].replicas
    supers = _results(out, "superposition_counts")
    overlaps = sum(r["overlap_events"] for _, r in supers)
    draws = sum(rep["plan"]["replicas"] for rep, _ in supers) + overlaps
    closed = [r["residual"] for _, r in _results(out, "closed_vs_bruteforce")]
    return {
        "core.configurations_built": tracer.value("core.Configuration",
                                                  "calls"),
        "transforms.max_rel_err": rec.max_rel_err("transforms"),
        "generators.operator_mb": tracer.operator_bytes / 2**20,
        "generators.closed_vs_brute_err": max(closed, default=0.0),
        "samplers.chain_step_us": (1e6 * tracer.value(
            "samplers.sample_gibbs_bd", "incl") / steps if steps else 0.0),
        "samplers.n_effective": n_eff,
        "samplers.ess_per_s": n_eff / gnz_s if gnz_s else 0.0,
        "samplers.mecke_replica_us": (1e6 * tracer.value(
            "samplers.verify_mecke", "incl") / mecke_replicas
            if mecke_replicas else 0.0),
        "samplers.overlap_retry_ratio": overlaps / draws if draws else 0.0,
    }


def layer_metrics(names, tracer, derived, traced_s, untraced_s):
    """Every per-layer metric named in BENCHMARK.json, by name."""
    values = {**derived,
              "trace.run_s": traced_s,
              "trace.overhead_s": traced_s - untraced_s,
              "trace.self_sum_s": tracer.self_sum,
              "trace.uncovered_s": traced_s - tracer.top_level}
    out = {}
    for metric in names:
        if metric in values:
            out[metric] = values[metric]
            continue
        # <module>.<function>.<s|calls>[.n<sites>]
        parts = metric.split(".")
        n = None
        if parts[-1].startswith("n") and parts[-1][1:].isdigit():
            n = int(parts.pop()[1:])
        kind = parts.pop()
        out[metric] = tracer.value(".".join(parts), kind, n)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    build, run, check = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    ready = time.monotonic()
    setup_scale = speed_scale()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    probe = SpeedProbe()

    def rep():
        if args.trace:  # no probes: the traced repetition is compared to it
            elapsed, out = _timed(run, inputs)
            return elapsed, elapsed, out
        with probe:
            elapsed, out = _timed(run, inputs)
        return elapsed, probe.reference_seconds(elapsed), out

    # outputs are checked as soon as they exist and then dropped, so every
    # repetition peaks at the same resident size
    start = time.perf_counter()
    elapsed, ref, out = rep()
    rec = check(inputs, out)
    times, ref_times, prints = [elapsed], [ref], {fingerprint(out)}
    del out
    while not args.trace and (time.perf_counter() - start + max(times)
                              <= args.seconds):
        elapsed, ref, out = rep()
        times.append(elapsed)
        ref_times.append(ref)
        prints.add(fingerprint(out))
        del out

    result = {"ready": ready, "setup_scale": setup_scale,
              "run_times": times, "ref_times": ref_times,
              "probe_s": statistics.median(probe.samples or [0.0]),
              "notes": workloads.NOTES[args.workload], "layers": None}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, out = _timed(run, inputs)
        finally:
            tracer.uninstall()
        prints.add(fingerprint(out))
        rec.flag("trace_self_le_run", tracer.self_sum <= traced_s)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result["layers"] = layer_metrics(
            [m["name"] for m in spec["per_layer"]], tracer,
            derived_metrics(tracer, rec, inputs, out), traced_s, times[0])
        result["table"] = sorted(
            ([nm, n, *tot] for (nm, n), tot in tracer.totals.items()),
            key=lambda row: -row[3])
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "run_s": traced_s})
    if len(times) > 1 or args.trace:
        rec.flag("repeat_identical", len(prints) == 1)
    result.update(
        attempted=rec.attempted, failed=rec.failed,
        failures=[r["check"] for r in rec.records if not r["pass"]],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
