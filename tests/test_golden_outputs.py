"""Every benchmark op prints what it printed when the benchmark was defined.

At its default seed ``bench/run.py`` digests each op's output with sha256
and counts an op whose digest differs from ``bench/golden.json`` as failed.
One pass of each workload (``--seconds 0``) runs every op, not only the
smoke ones, so this guards byte-identical output across the whole pipeline:
the CLI commands, ``chamber_of``'s names, transport and the series kernels.
The bench is run as a separate process and is read, not changed.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
RUN = os.path.join(ROOT, "bench", "run.py")


@pytest.mark.parametrize("workload", ["build-ladder", "web-queries", "series-ladder"])
def test_every_op_matches_its_golden_digest(workload):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the report names each failed op with its witness
    assert (result["correct"], result["failed"]) == (True, 0), "\n".join(l for l in lines if "FAIL" in l or "input:" in l)
    assert result["attempted"] >= 30
