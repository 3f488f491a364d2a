"""Every demo script runs to completion without writing to stderr.

Each runs in a fresh directory (demo 04 writes ``sweep_outputs/`` relative
to its working directory) with the package imported from ``src/``.  The
sweep CSVs demo 04 writes must equal, byte for byte, the ones committed
under ``tests/golden/demo04/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo -> (directory it writes, directory of the committed copies)
GOLDEN = {"04_figure_sweeps.py": ("sweep_outputs", ROOT / "tests" / "golden" / "demo04")}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if demo.name in GOLDEN:
        written, golden = GOLDEN[demo.name]
        files = sorted(p.name for p in (tmp_path / written).iterdir())
        assert files == sorted(p.name for p in golden.iterdir())
        for name in files:
            assert (tmp_path / written / name).read_bytes() == (golden / name).read_bytes(), name
