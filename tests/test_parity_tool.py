"""tools/parity.py: the BLAS thread count, then one timing-free JSON line
per workload case."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def test_seed_zero_of_every_workload():
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert list(header) == ["blas_threads"]
    assert header["blas_threads"] is None or header["blas_threads"] >= 1
    assert len(lines) == 3 and len({line["workload"] for line in lines}) == 3
    for line in lines:
        assert list(line) == ["workload", "seed", "best_value", "best_labeling_sha256", "dim_W",
                              "decision", "distinct_labelings", "net_points_evaluated",
                              "held_dims", "signed_candidates", "eigensolver", "cut_gap",
                              "dropped_residual", "failures", "extras"]
        assert line["seed"] == 0 and line["failures"] == []
        assert float.fromhex(line["best_value"]) <= 1.0
