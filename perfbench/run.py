"""Benchmark entry point: run one workload in fresh processes, print metrics.

From the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Workloads: lattice, generator, gibbs, poisson (see ``perfbench/NOTES.md``);
``--workload all`` runs the four in turn and ends with one combined JSON
line whose metric names carry the workload as a prefix.
Each run starts a fresh single-threaded worker process
(``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``) that imports ``confpp``
from ``src/``, builds the seeded inputs and times the workload body; six
more workers only build the inputs, so ``setup_s`` is a median of seven.

``--trace 0`` prints the end-to-end metrics: ``run_ref_s`` and ``setup_s``
(seconds at the reference speed that an in-process probe measures, see
``worker.SpeedProbe``), ``peak_rss_mb``, and the wall ``run_s`` they come
from.  ``--trace 1`` times one untraced and one traced repetition and
prints the per-layer metrics.  Every metric is printed by
name with its unit, followed by the check count, and the last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when the run completed (the checks decide ``correct``),
and 2 when the program or the benchmark's description is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
DEADLINE_S = 170.0
WORKLOADS = ("lattice", "generator", "gibbs", "poisson")


def _worker(args, workload, deadline, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - t0
    result["setup_s"] = result["setup_wall_s"] * result["setup_scale"]
    return result


def _tail(times):
    """Highest whole percentile above the median with 10 runs beyond it."""
    n = len(times)
    q = int(100 * (n - 10) / n)
    if q <= 50:
        return None
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def run_workload(args, workload, spec):
    """Run one workload, print its metrics; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [_worker(args, workload, deadline, True)
              for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    main_run = _worker(args, workload, deadline, False)
    setups.append(main_run)
    times = main_run["run_times"]

    print(f"workload {workload}, seed {args.seed}: {main_run['notes']}")
    if args.trace:
        metrics = {m["name"]: {"value": main_run["layers"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
        print(f"self time by wrapped function ({len(main_run['table'])} "
              "names, largest 15):")
        for name, n, calls, self_s, incl_s in main_run["table"][:15]:
            label = name if n is None else f"{name}.n{n}"
            print(f"  {label:44s} {calls:9d} calls {self_s:9.4f} s self "
                  f"{incl_s:9.4f} s incl")
    else:
        values = {"run_ref_s": statistics.median(main_run["ref_times"]),
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        tail = _tail(times)
        print(f"run_s (wall) over {len(times)} runs: median "
              f"{statistics.median(times):.4f} s; " +
              (f"p{tail[0]} {tail[1]:.4f} s" if tail else
               "no percentile above the median has 10 runs beyond it") +
              f"; speed probe median {1e6 * main_run['probe_s']:.1f} us")
        print(f"set-up wall seconds over {len(setups)} fresh processes: "
              + ", ".join(f"{s['setup_wall_s']:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    attempted, failed = main_run["attempted"], main_run["failed"]
    print(f"  {'check_fail_ratio':44s} {failed / attempted:.6g} "
          f"({failed} of {attempted} checks failed)")
    for name in main_run["failures"]:
        print(f"  FAILED {name}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "confpp" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("error: run from a checkout that holds src/confpp and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload, spec)))
        return 0
    results = {w: run_workload(args, w, spec) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
