"""Acceptance-test headroom: each gated test's time against its time budget.

From the repository root:

    python3 perfbench/headroom.py                  # all acceptance tests
    python3 perfbench/headroom.py -k "test_01 or test_03"

Runs ``tests/test_acceptance.py`` once without writing anything (no pytest
cache, no bytecode) and prints, for every test that asserts a wall-clock
gate, its call time, the gate and the share of the gate left over.  The
call time covers the whole test body, a little more than the region the
test itself times, so the headroom printed here is a slight underestimate.
Extra arguments go to pytest.  This is a one-off report, separate from the
per-workload benchmark runs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATES_S = {"test_01": 5.0, "test_02": 30.0, "test_03": 10.0,
           "test_06": 60.0, "test_08": 60.0, "test_09": 300.0}
DURATION = re.compile(r"^\s*([\d.]+)s\s+call\s+\S+::((test_\d+)\w*)")


def main(extra):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0",
         *extra], cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    print("\nacceptance-test headroom (call time against the test's gate):")
    for line in proc.stdout.splitlines():
        m = DURATION.match(line)
        if m and m.group(3) in GATES_S:
            took, gate = float(m.group(1)), GATES_S[m.group(3)]
            print(f"  {m.group(2):48s} {took:8.2f} s of {gate:5.0f} s: "
                  f"{100 * took / gate:5.1f}% used, "
                  f"{100 * (1 - took / gate):5.1f}% headroom")
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
