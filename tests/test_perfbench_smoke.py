"""The benchmark harness still finds what it measures in the package.

``perfbench/workloads.py`` keeps ``oracle-cold`` cold by clearing every
module-level ``cache_clear`` callable of :mod:`catscamp.fock`, and the traced
run wraps ``fock.beamsplitter_fock`` by name and reads
``fock.squeeze_operator.cache_info()``.  One short traced run from the root
of the checkout shows that those names are still there and still used, and
that the search counter counts every call of the fidelity curve.  It writes
only to the git-ignored ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_oracle_cold_run_counts_the_splitter():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-cold", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("failed_frac 0 ") for line in lines), proc.stdout
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["fock.beamsplitter_fock.calls"]["value"] > 0
    # one chi and one Fock beta* search per op, each 8 to 11 calls of its curve
    assert 16 <= metrics["optimize.fidelity_evals"]["value"] <= 22
