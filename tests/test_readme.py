"""The Python examples of README.md run as written.

Each fenced ``python`` block runs in a fresh interpreter with ``src`` on
``PYTHONPATH``, so an example that still uses a removed or renamed public
name fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
