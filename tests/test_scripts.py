import math
import os
import subprocess
import sys
from pathlib import Path

from hooklaw.limitlaw import exact_sup_distance

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split(",") for line in proc.stdout.splitlines()]


def test_ks_convergence_script():
    header, *rows = run_script("ks_convergence.py", "--sizes", "100", "--count", "200", "--seed", "1")
    assert header == ["n", "count", "ks_distance", "ks_reference", "mean_scaled", "exact_ks"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert (row["n"], row["count"]) == ("100", "200")
    assert row["exact_ks"] == f"{exact_sup_distance(100):.6f}"
    assert row["ks_reference"] == f"{1.95 / math.sqrt(200):.6f}"


def test_shape_profile_script():
    header, *rows = run_script("shape_profile.py", "--n", "100", "--draws", "2", "--points", "3")
    assert header == ["t", "s_limit", "profile_1", "profile_2"]
    assert len(rows) == 3
    assert all(len(row) == 4 for row in rows)
